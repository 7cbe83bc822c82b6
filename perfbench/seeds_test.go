package main

import (
	"flag"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

var (
	pick         = flag.Int("pick", 0, "scan study seeds 1..N and print new studySeeds lists")
	pickWorkload = flag.String("pick-workload", "", "scan only this workload")
)

// TestPickSeeds regenerates studySeeds:
//
//	go test -run TestPickSeeds -pick 600 -pick-workload paper -timeout 0 -v
func TestPickSeeds(t *testing.T) {
	if *pick == 0 {
		t.Skip("run with -pick N to scan seeds 1..N")
	}
	var names []string
	for name := range workloads {
		if *pickWorkload == "" || name == *pickWorkload {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		wl := workloads[name]
		// Counts do not depend on what else runs, so two workers share
		// the pool.
		sizes := make([]studySize, *pick)
		errs := make([]error, *pick)
		var mu sync.Mutex
		next := 0
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					k := next
					next++
					mu.Unlock()
					if k >= len(sizes) {
						return
					}
					sizes[k], errs[k] = measureCounts(wl, "..", uint64(k+1))
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		l := seedList{
			pool:    *pick,
			records: int64(medianOf(sizes, func(s studySize) float64 { return float64(s.records) })),
			diskOps: int64(medianOf(sizes, func(s studySize) float64 { return float64(s.diskOps) })),
			batches: int64(medianOf(sizes, func(s studySize) float64 { return float64(s.batches) })),
		}
		// Allocation is measured one study at a time, on the survivors.
		var kept []studySize
		for _, sz := range sizes {
			if l.countsInBand(sz) {
				var err error
				if sz.allocMB, err = measureAlloc(wl, "..", sz.seed); err != nil {
					t.Fatal(err)
				}
				kept = append(kept, sz)
			}
		}
		l.allocMB = medianOf(kept, func(s studySize) float64 { return s.allocMB })
		var seeds []string
		for _, sz := range kept {
			if near(sz.allocMB, l.allocMB, allocBand) {
				seeds = append(seeds, fmt.Sprint(sz.seed))
			}
		}
		fmt.Printf("\t%q: {pool: %d, records: %d, diskOps: %d, batches: %d, allocMB: %.1f,\n\t\tseeds: []uint64{%s}},\n",
			name, l.pool, l.records, l.diskOps, l.batches, l.allocMB, strings.Join(seeds, ", "))
	}
}

func medianOf(sizes []studySize, f func(studySize) float64) float64 {
	v := make([]float64, len(sizes))
	for i, sz := range sizes {
		v[i] = f(sz)
	}
	return median(v)
}

// TestStudySeeds checks that each list is long enough for its
// workload's jobs and, unless -short, that every listed seed still
// lies within the bands of its list's recorded medians.
func TestStudySeeds(t *testing.T) {
	for name, wl := range workloads {
		l := studySeeds[name]
		if len(l.seeds) < wl.jobs*wl.studies {
			t.Errorf("%s: %d seeds listed, want at least %d", name, len(l.seeds), wl.jobs*wl.studies)
		}
		if testing.Short() {
			continue
		}
		for _, seed := range l.seeds {
			sz, err := measureCounts(wl, "..", seed)
			if err == nil {
				sz.allocMB, err = measureAlloc(wl, "..", seed)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !l.countsInBand(sz) || !near(sz.allocMB, l.allocMB, allocBand) {
				t.Errorf("%s seed %d: %+v is outside the bands of %+v; regenerate with TestPickSeeds", name, seed, sz, l)
			}
		}
	}
}
