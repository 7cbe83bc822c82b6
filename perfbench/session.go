package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/twin"
)

// minCachedJobs is the fewest store-served jobs a run times, so that
// at least ten samples lie beyond the reported 90th percentile.
const minCachedJobs = 100

// session is one workload run in progress.
type session struct {
	o        options
	wl       *workloadDef
	log      io.Writer
	tr       *tracer // nil in the untraced run
	work     string  // this run's scratch directory
	spanPath string

	vals              map[string]float64
	attempted, failed int
	errs              []string

	specs  []*scenario.Spec // validated job specs; specs[0] is the report spec
	bodies [][]byte         // their JSON, as the client submits them
	d      *daemon

	// Per job spec, empty until computed: the scenario report, which
	// the daemon must return for the spec, the digest of the full
	// report text, the first prediction and the cold job's report.
	texts       []string
	sums        [][32]byte
	predictions []string
	coldTexts   []string

	// Samples of timed calls: RunScenario seconds and allocated MB,
	// Predict seconds and nanoseconds per predicted batch, traced walks
	// and their seconds, cold job seconds; over every daemon job,
	// JobKey microseconds and POST and report GET milliseconds; SSE
	// events per cold job.
	reportS, allocMB, predictS, nsPerBatch, walkS, coldS []float64
	walks                                                []walkStats
	jobkeys, submits, reportGets, sseCold                []float64
	// Digests of every output a run checks, in the order produced:
	// report, prediction and each cold job's report.
	digests []string
}

func newSession(o options, wl *workloadDef, log io.Writer) (*session, error) {
	root, err := filepath.Abs(o.root)
	if err != nil {
		return nil, err
	}
	o.root = root
	dir := filepath.Join(root, ".bench_build", "perfbench")
	s := &session{
		o:    o,
		wl:   wl,
		log:  log,
		work: filepath.Join(dir, fmt.Sprintf("work-%s-%d-%d", wl.name, o.seed, os.Getpid())),
		vals: make(map[string]float64),
	}
	if o.trace {
		id := fmt.Sprintf("%s-seed%d-%d", wl.name, o.seed, time.Now().UnixNano())
		s.tr = newTracer(id)
		s.spanPath = filepath.Join(dir, "spans-"+id+".json")
	}
	return s, os.MkdirAll(s.work, 0o755)
}

// check counts one attempted operation and records it as failed when
// ok is false.
func (s *session) check(ok bool, format string, args ...any) {
	s.attempted++
	if !ok {
		s.failed++
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

// collect runs a garbage collection before a timed call, so the
// garbage an earlier call left is not charged to it.
func (s *session) collect() {
	s.tr.do("bench.gc", runtime.GC)
}

// budget is a phase's share of the measuring time.
func (s *session) budget(share float64) time.Duration {
	return time.Duration(share * s.o.seconds * float64(time.Second))
}

// run executes the phases in order: set-up, the golden gate, the
// measured rounds, the store (traced run only) and the store-served
// jobs.
func (s *session) run() error {
	defer func() {
		if s.d != nil {
			s.d.close()
		}
	}()
	var setups []float64
	for i := 0; i < 5; i++ {
		if s.d != nil {
			err := s.d.close()
			s.d = nil
			if err != nil {
				return err
			}
		}
		var err error
		d := s.tr.do("bench.setup", func() { err = s.setup(filepath.Join(s.work, fmt.Sprintf("store-%d", i))) })
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	s.vals["setup_s"] = median(setups)

	s.tr.do("bench.golden", s.golden)
	phases := []func() error{s.rounds}
	if s.tr != nil {
		phases = append(phases, s.storePhase)
	}
	phases = append(phases, s.cachedPhase)
	for _, p := range phases {
		if err := p(); err != nil {
			return err
		}
	}
	if s.tr == nil {
		return nil
	}
	s.tr.finish()
	_, s.vals["bench.unattributed_s"] = s.tr.selfTimes()
	return s.tr.write(s.spanPath)
}

// setup builds and validates every job spec, starts a daemon over a
// fresh store directory, and warms up with the report spec's shape at
// seed 42 and the smallest scale, an input that does not vary with
// --seed.
func (s *session) setup(dir string) error {
	s.specs, s.bodies = nil, nil
	for j := 0; j < s.wl.jobs; j++ {
		spec, err := s.wl.spec(s.o, s.wl.jobSeeds(s.o, j))
		if err != nil {
			return err
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		if err := spec.Validate(); err != nil {
			return err
		}
		s.specs = append(s.specs, spec)
		s.bodies = append(s.bodies, body)
	}
	s.texts = make([]string, len(s.specs))
	s.sums = make([][32]byte, len(s.specs))
	s.predictions = make([]string, len(s.specs))
	s.coldTexts = make([]string, len(s.specs))
	d, err := startDaemon(dir)
	if err != nil {
		return err
	}
	s.d = d
	warm := *s.specs[0]
	warm.Seeds = []uint64{42}
	warm.Scales = []float64{scenario.MinScale}
	_, err = core.RunScenario(context.Background(), &warm)
	return err
}

// golden checks that the seed-42, scale-0.01 Figure 8 scenario still
// reproduces its checked-in golden report.
func (s *session) golden() {
	dir := filepath.Join(s.o.root, "testdata", "scenarios")
	want, err := os.ReadFile(filepath.Join(dir, "golden", "fig8.golden"))
	var spec *scenario.Spec
	if err == nil {
		spec, err = scenario.Load(filepath.Join(dir, "fig8.json"))
	}
	var res *core.ScenarioResult
	if err == nil {
		res, err = core.RunScenario(context.Background(), spec)
	}
	if err == nil && res.Format() != string(want) {
		err = errors.New("report differs from fig8.golden")
	}
	s.check(err == nil, "fig8 golden gate: %v", err)
}

// rounds measures the job specs in turn. Round j runs a report and a
// prediction of spec j mod len(specs), and the first len(specs) rounds
// each add spec j's cold daemon job; rounds go on until the run's
// measuring share is spent. Interleaving spreads every metric's
// samples over the whole run, so a burst of load from elsewhere on the
// host touches few of them. The untraced run times core.RunScenario;
// the traced run calls it once on spec 0, as the reference, and then
// walks spec 0 stage by stage in each round, each walk's report
// compared with the reference byte for byte. A first report and
// prediction warm the process up and are not timed.
func (s *session) rounds() error {
	if err := s.report(0, false); err != nil {
		return err
	}
	if s.tr != nil {
		if err := s.report(0, true); err != nil {
			return err
		}
		s.vals["core.sweep_s"] = s.reportS[0]
	}
	if err := s.predict(0, false); err != nil {
		return err
	}

	var coldWall time.Duration
	studies := 0
	start := time.Now()
	for r := 0; r < len(s.specs) || time.Since(start) < s.budget(s.wl.share); r++ {
		j := r % len(s.specs)
		var err error
		if s.tr == nil {
			err = s.report(j, true)
		} else {
			err = s.walk()
		}
		if err == nil {
			err = s.predict(j, true)
		}
		if err != nil {
			return err
		}
		if r < len(s.specs) {
			if jt, ok := s.coldJob(j); ok {
				coldWall += jt.total
				s.coldS = append(s.coldS, jt.total.Seconds())
				studies += s.specs[j].Studies()
			}
		}
	}
	if len(s.coldS) == 0 {
		return errors.New("no cold daemon job completed")
	}
	if s.tr == nil {
		s.vals["report_s"] = median(s.reportS)
		s.vals["alloc_mb"] = median(s.allocMB)
	} else {
		s.walkMetrics()
		s.vals["bench.walk_s"] = median(s.walkS)
		s.vals["bench.trace_overhead_s"] = median(s.walkS) - s.vals["core.sweep_s"]
	}
	s.vals["predict_s"] = median(s.predictS)
	s.vals["twin.predict_s"] = median(s.predictS)
	s.vals["twin.ns_per_batch"] = median(s.nsPerBatch)
	s.vals["job_cold_s"] = median(s.coldS)
	s.vals["studies_per_s"] = float64(studies) / coldWall.Seconds()
	s.vals["serve.sse_events"] = median(s.sseCold)
	return nil
}

// report runs core.RunScenario on spec j, checks the report against
// the spec's first one, and records the call's time and allocated
// megabytes when timed.
func (s *session) report(j int, timed bool) error {
	spec := s.specs[j]
	var res *core.ScenarioResult
	var err error
	var m0, m1 runtime.MemStats
	s.collect()
	runtime.ReadMemStats(&m0)
	d := s.tr.do("core.RunScenario", func() { res, err = core.RunScenario(context.Background(), spec) })
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("RunScenario %s: %w", spec.Name, err)
	}
	sum := sha256.Sum256([]byte(reportText(res)))
	if s.texts[j] == "" {
		s.texts[j], s.sums[j] = res.Format(), sum
		if j == 0 {
			s.digests = append(s.digests, fmt.Sprintf("%x", sum))
		}
	}
	s.check(sum == s.sums[j], "%s: report digest differs between repetitions", spec.Name)
	if timed {
		s.reportS = append(s.reportS, d.Seconds())
		s.allocMB = append(s.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	}
	return nil
}

// walk walks spec 0 stage by stage and checks its report against
// RunScenario's and its simulated counters against the first walk's.
func (s *session) walk() error {
	var text string
	var st walkStats
	var err error
	s.collect()
	d := s.tr.do("bench.walk", func() { text, st, err = staged(s.tr, s.specs[0]) })
	if err != nil {
		return err
	}
	same := len(s.walks) == 0 || st.sim == s.walks[0].sim
	s.check(sha256.Sum256([]byte(text)) == s.sums[0] && same,
		"%s: staged walk's report differs from RunScenario's, or its simulated counters from the first walk's", s.specs[0].Name)
	s.walks = append(s.walks, st)
	s.walkS = append(s.walkS, d.Seconds())
	return nil
}

// walkMetrics reports the traced walks: host times as medians over
// the walks, simulated counters from the first.
func (s *session) walkMetrics() {
	walks := s.walks
	med := func(f func(w walkStats) float64) float64 {
		vals := make([]float64, len(walks))
		for i, w := range walks {
			vals[i] = f(w)
		}
		return median(vals)
	}
	w := walks[0]
	v := s.vals
	v["workload.install_s"] = med(func(w walkStats) float64 { return w.installS })
	v["workload.jobs"] = float64(w.sim.jobs)
	v["sim.run_s"] = med(func(w walkStats) float64 { return w.runS })
	v["sim.ns_per_record"] = med(func(w walkStats) float64 { return 1e9 * w.runS / float64(w.sim.records) })
	v["sim.horizon_s"] = w.sim.horizonS
	v["machine.trace_records"] = float64(w.sim.records)
	v["machine.trace_messages"] = float64(w.sim.messages)
	v["cfs.disk_ops"] = float64(w.sim.diskOps)
	v["cfs.ionode_batches"] = w.sim.batches
	v["cfs.ionode_wait_s"] = w.sim.waitS
	v["cfs.ionode_busy_s"] = w.sim.busyS
	v["trace.finish_s"] = med(func(w walkStats) float64 { return w.finishS })
	v["trace.postprocess_s"] = med(func(w walkStats) float64 { return w.postS })
	v["trace.events"] = float64(w.sim.events)
	v["trace.ns_per_event"] = med(func(w walkStats) float64 { return 1e9 * (w.finishS + w.postS) / float64(w.sim.events) })
	v["analysis.analyze_s"] = med(func(w walkStats) float64 { return w.analyzeS })
	v["analysis.format_s"] = med(func(w walkStats) float64 { return w.formatS })
	v["cachesim.fig8_s"] = med(func(w walkStats) float64 { return w.fig8S })
	v["cachesim.fig9_s"] = med(func(w walkStats) float64 { return w.fig9S })
	v["cachesim.combined_s"] = med(func(w walkStats) float64 { return w.combinedS })
	v["cachesim.accesses"] = float64(w.sim.accesses)
	v["cachesim.ns_per_access"] = med(func(w walkStats) float64 {
		return 1e9 * (w.fig8S + w.fig9S + w.combinedS) / float64(w.sim.accesses)
	})
	v["cachesim.hit_ratio"] = float64(w.sim.hits) / float64(w.sim.accesses)
}

// predict runs the analytical twin on spec j's first study, checks
// the prediction against the spec's first one, and records the call's
// time and time per predicted batch when timed.
func (s *session) predict(j int, timed bool) error {
	cfg := core.ScenarioSpecs(s.specs[j])[0].Config
	var p *twin.Prediction
	s.collect()
	d := s.tr.do("twin.Predict", func() { p = core.Predict(cfg) })
	text := p.Format()
	if s.predictions[j] == "" {
		s.predictions[j] = text
		if j == 0 {
			s.vals["twin.batches"] = float64(p.TotalBatches())
			s.digests = append(s.digests, fmt.Sprintf("%x", sha256.Sum256([]byte(text))))
		}
	}
	s.check(text == s.predictions[j], "%s: prediction differs between repetitions", s.specs[j].Name)
	if timed {
		s.predictS = append(s.predictS, d.Seconds())
		s.nsPerBatch = append(s.nsPerBatch, 1e9*d.Seconds()/float64(p.TotalBatches()))
	}
	return nil
}

// storePhase runs the report spec through the persistent run store on
// a fresh directory, measuring how much of the process's CPU capacity
// sat idle meanwhile, then merges the committed directory.
func (s *session) storePhase() error {
	spec := s.specs[0]
	store := core.StoreConfig{Dir: filepath.Join(s.work, "store-direct")}
	s.collect()
	cpu0, err := cpuSeconds()
	if err != nil {
		return err
	}
	var run *core.ScenarioStoreRun
	d := s.tr.do("core.RunScenarioStore", func() { run, err = core.RunScenarioStore(context.Background(), spec, store) })
	cpu1, cerr := cpuSeconds()
	if err = errors.Join(err, cerr); err != nil {
		return fmt.Errorf("RunScenarioStore %s: %w", spec.Name, err)
	}
	s.check(run.Result != nil && run.Result.Format() == s.texts[0], "%s: store run's report differs from RunScenario's", spec.Name)
	s.vals["core.store_run_s"] = d.Seconds()
	s.vals["core.store_idle_share"] = 1 - (cpu1-cpu0)/(d.Seconds()*float64(runtime.GOMAXPROCS(0)))

	var merged *core.ScenarioStoreRun
	d = s.tr.do("core.MergeScenarioStore", func() { merged, err = core.MergeScenarioStore(spec, store) })
	if err != nil {
		return fmt.Errorf("MergeScenarioStore %s: %w", spec.Name, err)
	}
	s.check(merged.Result != nil && merged.Result.Format() == s.texts[0], "%s: merged report differs from RunScenario's", spec.Name)
	s.vals["core.merge_ms"] = 1e3 * d.Seconds()
	return nil
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(), nil
}

// job runs spec j through the daemon and checks that it ran under
// the spec's JobKey, that the server answered it from its store exactly
// when cached is set, and that the report equals want unless want is
// empty. Each job is one checked operation.
func (s *session) job(j int, cached bool, want string) (jobTimes, bool) {
	var id string
	var jt jobTimes
	var err error
	d := s.tr.do("serve.JobKey", func() { id, err = serve.JobKey(s.specs[j]) })
	s.jobkeys = append(s.jobkeys, 1e6*d.Seconds())
	if err == nil {
		s.tr.do("serve.job", func() { jt, err = s.d.job(s.tr, s.bodies[j]) })
	}
	switch {
	case err != nil:
	case jt.id != id:
		err = fmt.Errorf("job id %s, want JobKey %s", jt.id, id)
	case jt.cached != cached:
		err = fmt.Errorf("served from the store: %v, want %v", jt.cached, cached)
	case want != "" && jt.text != want:
		err = errors.New("report differs from the expected one")
	}
	s.check(err == nil, "%s job: %v", s.specs[j].Name, err)
	if err != nil {
		return jt, false
	}
	s.submits = append(s.submits, 1e3*jt.submit.Seconds())
	s.reportGets = append(s.reportGets, 1e3*jt.report.Seconds())
	return jt, true
}

// coldJob submits spec j, which the store has not seen. Its report
// must equal RunScenario's for the spec, where a report round computed
// it, and is what the spec's resubmissions must return.
func (s *session) coldJob(j int) (jobTimes, bool) {
	s.collect()
	jt, ok := s.job(j, false, s.texts[j])
	if ok {
		s.coldTexts[j] = jt.text
		s.sseCold = append(s.sseCold, float64(jt.nEvent))
		s.digests = append(s.digests, fmt.Sprintf("%x", sha256.Sum256([]byte(jt.text))))
	}
	return jt, ok
}

// cachedPhase restarts the daemon and resubmits every spec whose cold
// job completed, round after round, until at least minCachedJobs jobs
// were served from the store and the phase's share is spent. Each
// resubmission reaches a server that has never seen the spec, so it
// takes the store probe. The first round warms up and is not counted.
// Client and server share one P here: a store-served job takes a
// fraction of a millisecond, and waking a goroutine on the other vCPU
// would add more noise than the job's own work.
func (s *session) cachedPhase() error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var cached []float64
	s.collect()
	start := time.Now()
	for round := 0; len(cached) < minCachedJobs || time.Since(start) < s.budget(s.wl.cachedShare); round++ {
		if round == 1 {
			cached = cached[:0]
		}
		var err error
		s.tr.do("serve.restart", func() { err = s.d.restart() })
		if err != nil {
			return fmt.Errorf("restarting the daemon: %w", err)
		}
		served := 0
		for j, text := range s.coldTexts {
			if text == "" {
				continue
			}
			s.collect()
			if jt, ok := s.job(j, true, text); ok {
				served++
				cached = append(cached, 1e3*jt.total.Seconds())
			}
		}
		if served == 0 {
			return errors.New("no resubmitted daemon job completed")
		}
	}
	s.vals["job_cached_ms"] = median(cached)
	s.vals["job_cached_ms.p90"] = quantile(cached, 0.9)
	s.vals["serve.jobkey_us"] = median(s.jobkeys)
	s.vals["serve.submit_ms"] = median(s.submits)
	s.vals["serve.report_ms"] = median(s.reportGets)
	fmt.Fprintf(s.log, "daemon: %d cold jobs, %d store-served jobs timed\n", len(s.sseCold), len(cached))
	return nil
}
