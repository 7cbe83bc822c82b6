package main

import (
	"context"
	"runtime"

	"repro/internal/core"
	"repro/internal/scenario"
)

// Bands around a pool's medians within which a listed study seed's
// work counts and allocated bytes must lie.
const (
	countBand = 0.10
	allocBand = 0.05
)

// seedList is the set of study seeds a workload's --seed chooses from.
// How much a study simulates varies about threefold between seeds of
// the calibrated generator (paper at scale 0.1: 214k to 631k trace
// records over seeds 1 to 10), which would drown any code change in a
// comparison between runs. So each list holds the seeds, among 1 to
// pool, whose trace records, disk operations and I/O-node batches lie
// within countBand of the pool's medians, and whose report allocates
// within allocBand of the median over those seeds. TestPickSeeds
// regenerates the lists; TestStudySeeds checks them.
type seedList struct {
	pool                      int
	records, diskOps, batches int64
	allocMB                   float64
	seeds                     []uint64
}

var studySeeds = map[string]seedList{
	"paper": {pool: 600, records: 310856, diskOps: 834825, batches: 792471, allocMB: 609.5,
		seeds: []uint64{79, 292, 359, 451, 469}},
	"checkpoint": {pool: 500, records: 196983, diskOps: 1116656, batches: 438739, allocMB: 193.7,
		seeds: []uint64{8, 32, 45, 66, 72, 105, 121, 136, 147, 152, 175, 184, 197, 210, 216, 224, 226, 234, 253, 254,
			266, 276, 287, 297, 316, 331, 345, 347, 350, 378, 410, 457, 462, 468, 475, 477, 486, 491, 495}},
	"serve": {pool: 3000, records: 66550, diskOps: 160506, batches: 154541, allocMB: 49.1,
		seeds: []uint64{18, 252, 352, 607, 896, 957, 1098, 1405, 2059}},
}

// studySize is the simulated work of one study of a workload's spec
// and the bytes its single-study report allocates.
type studySize struct {
	seed                      uint64
	records, diskOps, batches int64
	allocMB                   float64
}

// singleStudy is the workload's spec with one study, for seed.
func singleStudy(wl *workloadDef, root string, seed uint64) (core.Config, *scenario.Spec, error) {
	spec, err := wl.spec(options{root: root}, make([]uint64, wl.studies))
	if err != nil {
		return core.Config{}, nil, err
	}
	spec.Seeds = []uint64{seed}
	if err := spec.Validate(); err != nil {
		return core.Config{}, nil, err
	}
	return core.ScenarioSpecs(spec)[0].Config, spec, nil
}

// measureCounts runs the study of the workload's spec for seed and
// returns its work counts.
func measureCounts(wl *workloadDef, root string, seed uint64) (studySize, error) {
	cfg, _, err := singleStudy(wl, root, seed)
	if err != nil {
		return studySize{}, err
	}
	r := core.RunStudy(cfg)
	sz := studySize{seed: seed, records: r.TraceRecords, diskOps: r.DiskOps}
	for _, q := range r.IOQueue {
		sz.batches += q.Batches
	}
	return sz, nil
}

// measureAlloc returns the megabytes core.RunScenario allocates for the
// workload's single-study spec at seed. Nothing else may run in the
// process meanwhile.
func measureAlloc(wl *workloadDef, root string, seed uint64) (float64, error) {
	_, spec, err := singleStudy(wl, root, seed)
	if err != nil {
		return 0, err
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	_, err = core.RunScenario(context.Background(), spec)
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6, err
}

// near reports whether v lies within band of med.
func near(v, med, band float64) bool {
	return v >= (1-band)*med && v <= (1+band)*med
}

// countsInBand reports whether sz's work counts lie within countBand
// of l's medians.
func (l seedList) countsInBand(sz studySize) bool {
	return near(float64(sz.records), float64(l.records), countBand) &&
		near(float64(sz.diskOps), float64(l.diskOps), countBand) &&
		near(float64(sz.batches), float64(l.batches), countBand)
}
