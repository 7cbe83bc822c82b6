package main

import (
	"math"
	"sort"
)

// metricDef is one reported metric. BENCHMARK.json lists the same
// names and units; perfbench_test.go checks that they agree.
type metricDef struct {
	name, unit string
	doc        string
}

// endToEnd is what the untraced run reports: what a user of the
// reproduction waits for or pays, all host measurements.
var endToEnd = []metricDef{
	{"setup_s", "s", "median of 5 set-ups: spec build and validation, daemon start, warm-up at seed 42, scale 0.01"},
	{"report_s", "s", "median core.RunScenario time, spec to formatted report, over the job specs in turn"},
	{"alloc_mb", "MB", "median bytes allocated per core.RunScenario call"},
	{"predict_s", "s", "median core.Predict time on each job spec's first study in turn"},
	{"job_cold_s", "s", "median daemon job time, submit to report read, for jobs that simulate"},
	{"studies_per_s", "1/s", "studies committed per second over the daemon's cold phase"},
	{"job_cached_ms", "ms", "median daemon job time for jobs a restarted server answers from its store"},
	{"job_cached_ms.p90", "ms", "90th percentile of the same (at least 100 samples)"},
}

// perLayer is what the traced run reports. Host times are medians over
// the run's staged walks (or calls); simulated counters are identical
// from run to run for a given seed and carry units that say so.
var perLayer = []metricDef{
	{"workload.install_s", "s", "workload.NewGenerator + Install"},
	{"workload.jobs", "count", "jobs installed"},
	{"sim.run_s", "s", "sim.Kernel.Run (machine, cfs, disk, topo, faults run inside)"},
	{"sim.ns_per_record", "ns", "sim.run_s per trace record"},
	{"sim.horizon_s", "sim_s", "simulated study horizon"},
	{"machine.trace_records", "count", "trace records made at compute nodes"},
	{"machine.trace_messages", "count", "trace blocks shipped to the collector"},
	{"cfs.disk_ops", "count", "physical disk operations"},
	{"cfs.ionode_batches", "count", "request batches the I/O nodes served"},
	{"cfs.ionode_wait_s", "sim_s", "simulated time batches queued at I/O nodes"},
	{"cfs.ionode_busy_s", "sim_s", "simulated time I/O nodes spent serving"},
	{"trace.finish_s", "s", "Machine.FinishTracing"},
	{"trace.postprocess_s", "s", "trace.Postprocess"},
	{"trace.events", "count", "postprocessed events"},
	{"trace.ns_per_event", "ns", "finish + postprocess time per event"},
	{"analysis.analyze_s", "s", "analysis.Analyze"},
	{"analysis.format_s", "s", "Report.Format"},
	{"cachesim.fig8_s", "s", "core.RunFig8Buffers"},
	{"cachesim.fig9_s", "s", "core.Fig9Sweep, every policy and I/O-node count"},
	{"cachesim.combined_s", "s", "cachesim.CombinedPolicy"},
	{"cachesim.accesses", "count", "cache lookups simulated"},
	{"cachesim.ns_per_access", "ns", "cache simulation time per lookup"},
	{"cachesim.hit_ratio", "ratio", "simulated hits per lookup"},
	{"twin.predict_s", "s", "core.Predict"},
	{"twin.batches", "count", "I/O batches the twin predicts for spec 0's first study"},
	{"twin.ns_per_batch", "ns", "median core.Predict time per predicted batch"},
	{"core.sweep_s", "s", "core.RunScenario of spec 0, in memory"},
	{"core.store_run_s", "s", "core.RunScenarioStore of the same spec on a fresh directory"},
	{"core.store_idle_share", "ratio", "1 - process CPU / (wall x GOMAXPROCS) during that call"},
	{"core.merge_ms", "ms", "core.MergeScenarioStore on the committed directory"},
	{"serve.jobkey_us", "us", "serve.JobKey of a job spec"},
	{"serve.submit_ms", "ms", "median POST /v1/jobs round trip"},
	{"serve.report_ms", "ms", "median GET report round trip"},
	{"serve.sse_events", "count", "SSE events a cold job's stream carries"},
	{"bench.walk_s", "s", "one traced staged walk, spec to report"},
	{"bench.trace_overhead_s", "s", "bench.walk_s minus core.sweep_s"},
	{"bench.unattributed_s", "s", "root span time no layer span covers"},
}

// median returns the middle value (mean of the middle two for an even
// count); it does not modify vals.
func median(vals []float64) float64 {
	return quantile(vals, 0.5)
}

// quantile returns the q-quantile by linear interpolation between
// closest ranks; it does not modify vals.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
