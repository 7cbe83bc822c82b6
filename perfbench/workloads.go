package main

import (
	"fmt"
	"path/filepath"

	"repro/internal/scenario"
)

// workloadDef is one named workload: the specs it runs and how it
// divides the run's measuring time between phases.
type workloadDef struct {
	name string
	// spec builds the unvalidated spec for the given study seeds.
	spec func(o options, seeds []uint64) (*scenario.Spec, error)
	// studies is how many study seeds each spec takes.
	studies int
	// jobs is how many distinct specs the daemon phase submits cold.
	jobs int
	// Shares of --seconds for the measured rounds and for the
	// store-served jobs; the rounds always cover every job spec once,
	// and the store-served jobs number at least minCachedJobs, so a
	// very short run still checks every output.
	share, cachedShare float64
}

var workloads = map[string]*workloadDef{
	// The calibrated NAS mix with the whole paper report: the study,
	// Figures 8 and 9 and the combined experiment. Read-dominated,
	// small requests; the heavy case for cachesim and trace.
	"paper": {
		name: "paper",
		spec: func(o options, seeds []uint64) (*scenario.Spec, error) {
			return &scenario.Spec{
				Version:     scenario.Version,
				Name:        "paper",
				Description: "The calibrated NAS workload with Figures 8 and 9 and the combined experiment.",
				Seeds:       seeds,
				Scales:      []float64{o.scale(0.1)},
				Cache: &scenario.CacheSpec{
					Fig8:     &scenario.Fig8Spec{},
					Fig9:     &scenario.Fig9Spec{},
					Combined: &scenario.CombinedSpec{},
				},
			}, nil
		},
		studies: 1, jobs: 5,
		share: 0.8, cachedShare: 0.03,
	},
	// The write-dominated mix of testdata/scenarios/checkpoint-heavy.json
	// at scale 0.2: cfs, disk and the twin carry the load. Its cache
	// experiments are the fixture's combined one plus a one-point
	// Figure 8 and Figure 9, so every cachesim stage is timed but light.
	"checkpoint": {
		name: "checkpoint",
		spec: func(o options, seeds []uint64) (*scenario.Spec, error) {
			spec, err := scenario.Load(filepath.Join(o.root, "testdata", "scenarios", "checkpoint-heavy.json"))
			if err != nil {
				return nil, err
			}
			spec.Seeds = seeds
			spec.Scales = []float64{o.scale(0.2)}
			spec.Cache.Fig8 = &scenario.Fig8Spec{Buffers: []int{1}}
			spec.Cache.Fig9 = &scenario.Fig9Spec{Policies: []string{"LRU"}, Buffers: []int{1000}}
			return spec, nil
		},
		studies: 1, jobs: 5,
		share: 0.8, cachedShare: 0.03,
	},
	// Many small two-study jobs through the daemon and its lease store.
	// Each spec has its own pair of seeds; Figure 8 is on, with a
	// one-point Figure 9 and the combined experiment kept light.
	"serve": {
		name: "serve",
		spec: func(o options, seeds []uint64) (*scenario.Spec, error) {
			return &scenario.Spec{
				Version: scenario.Version,
				Name:    fmt.Sprintf("serve-%d", seeds[0]),
				Seeds:   seeds,
				Scales:  []float64{o.scale(0.02)},
				Cache: &scenario.CacheSpec{
					Fig8:     &scenario.Fig8Spec{},
					Fig9:     &scenario.Fig9Spec{Policies: []string{"LRU"}, Buffers: []int{1000}},
					Combined: &scenario.CombinedSpec{},
				},
			}, nil
		},
		studies: 2, jobs: 4,
		share: 0.8, cachedShare: 0.1,
	},
}

// jobSeeds returns the study seeds of job spec j: consecutive entries
// of the workload's seed list, starting at the one --seed selects.
func (wl *workloadDef) jobSeeds(o options, j int) []uint64 {
	list := studySeeds[wl.name].seeds
	seeds := make([]uint64, wl.studies)
	for i := range seeds {
		seeds[i] = list[(o.seed+uint64(j*wl.studies+i))%uint64(len(list))]
	}
	return seeds
}

// scale is a workload's study scale, or the smallest one in a tiny run.
func (o options) scale(s float64) float64 {
	if o.tiny {
		return scenario.MinScale
	}
	return s
}
