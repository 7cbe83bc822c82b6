package main

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// walkStats is what one staged walk measured: host seconds per stage,
// summed over the scenario's studies, and the simulated counters.
type walkStats struct {
	installS, runS, finishS, postS, analyzeS, formatS float64
	fig8S, fig9S, combinedS                           float64
	sim                                               counters
}

// counters are a walk's simulated results, which depend only on the
// inputs.
type counters struct {
	jobs, records, messages, diskOps, events, accesses, hits int64
	horizonS, batches, waitS, busyS                          float64
}

// staged walks every study of a validated simulation scenario through
// the public stage functions one at a time -- the steps core.RunStudy
// and the scenario engine take inside one call -- so the tracer can
// time each layer on its own. It returns the walk's report, which must
// equal reportText of core.RunScenario's result byte for byte.
func staged(t *tracer, spec *scenario.Spec) (string, walkStats, error) {
	var st walkStats
	specs := core.ScenarioSpecs(spec)
	plan := spec.CachePlan()
	outs := make([]core.StudyOutcome, len(specs))
	texts := make([]string, len(specs))
	for i, ss := range specs {
		wp, mc, err := studyParams(ss.Config)
		if err != nil {
			return "", st, err
		}
		k := sim.New()
		m := machine.New(k, mc)
		target := &countingTarget{Target: m}
		var horizon sim.Time
		st.installS += t.do("workload.Install", func() {
			horizon = workload.NewGenerator(wp).Install(target)
		}).Seconds()
		st.runS += t.do("sim.Kernel.Run", k.Run).Seconds()
		var tr *trace.Trace
		st.finishS += t.do("trace.FinishTracing", func() { tr = m.FinishTracing() }).Seconds()
		var events []trace.Event
		st.postS += t.do("trace.Postprocess", func() { events = trace.Postprocess(tr) }).Seconds()
		var report *analysis.Report
		st.analyzeS += t.do("analysis.Analyze", func() {
			report = analysis.Analyze(tr.Header, events, horizon)
		}).Seconds()
		report.Degradation = m.FaultReport()
		var text string
		st.formatS += t.do("analysis.Report.Format", func() { text = report.Format() }).Seconds()
		if plan != nil {
			texts[i] = st.cacheText(t, plan, events, int64(tr.Header.BlockBytes))
		}

		outs[i] = core.StudyOutcome{
			Spec:          ss,
			Done:          true,
			ReportText:    text,
			Header:        tr.Header,
			Horizon:       horizon,
			EventCount:    len(events),
			TraceRecords:  m.TraceRecords(),
			TraceMessages: m.TraceMessages(),
			DiskOps:       m.FS().TotalDiskOps(),
		}
		st.sim.jobs += target.jobs
		st.sim.records += m.TraceRecords()
		st.sim.messages += m.TraceMessages()
		st.sim.diskOps += m.FS().TotalDiskOps()
		st.sim.events += int64(len(events))
		st.sim.horizonS += horizon.ToSeconds()
		for _, q := range m.IONodeQueueStats() {
			st.sim.batches += float64(q.Batches)
			st.sim.waitS += q.Wait.ToSeconds()
			st.sim.busyS += q.Service.ToSeconds()
		}
	}
	res := &core.ScenarioResult{Spec: spec, Sweep: &core.SweepResult{Outcomes: outs}, CacheTexts: texts}
	return reportText(res), st, nil
}

// studyParams resolves a normalized study config into the workload and
// machine configurations the study runs, as core's unexported
// studyParams does. It refuses scales above 0.2, where core also grows
// the default machine's disks; the benchmark's workloads stay below.
func studyParams(cfg core.Config) (workload.Params, machine.Config, error) {
	if cfg.Scale > 0.2 && cfg.Machine == nil {
		return workload.Params{}, machine.Config{}, errors.New("staged walk: scale above 0.2 on the default machine is not mirrored")
	}
	wp := workload.Default(cfg.Seed)
	if cfg.Workload != nil {
		wp = *cfg.Workload
		wp.Seed = cfg.Seed
	}
	wp.Scale = cfg.Scale
	mc := machine.NASConfig(cfg.Seed)
	if cfg.Machine != nil {
		mc = *cfg.Machine
		mc.Seed = cfg.Seed
	}
	if cfg.Faults != nil {
		mc.Faults = *cfg.Faults
	}
	return wp, mc, nil
}

// countingTarget counts the jobs the generator installs.
type countingTarget struct {
	workload.Target
	jobs int64
}

func (c *countingTarget) SubmitAt(t sim.Time, spec machine.JobSpec) {
	c.jobs++
	c.Target.SubmitAt(t, spec)
}

// cacheText runs the plan's cache experiments on one study's events,
// timing each, and renders them as the scenario engine does.
func (st *walkStats) cacheText(t *tracer, plan *scenario.ResolvedCache, events []trace.Event, blockBytes int64) string {
	var b strings.Builder
	sep := func() {
		if b.Len() > 0 {
			b.WriteString("\n")
		}
	}
	if plan.Fig8Buffers != nil {
		var res []core.Fig8Result
		st.fig8S += t.do("cachesim.RunFig8Buffers", func() {
			res = core.RunFig8Buffers(events, blockBytes, plan.Fig8Buffers)
		}).Seconds()
		for _, r := range res {
			for _, j := range r.Jobs {
				st.sim.accesses += j.Accesses
				st.sim.hits += j.Hits
			}
		}
		b.WriteString(core.FormatFig8(res))
	}
	if f := plan.Fig9; f != nil {
		sep()
		fmt.Fprintln(&b, "Figure 9: I/O-node caching (4 KB buffers)")
		for _, ioNodes := range f.IONodes {
			fmt.Fprintf(&b, "\n  %d I/O node(s):\n", ioNodes)
			fmt.Fprintf(&b, "  %10s", "buffers")
			for _, p := range f.Policies {
				fmt.Fprintf(&b, "  %10s", p)
			}
			fmt.Fprintln(&b)
			curves := make([][]cachesim.IONodeResult, len(f.Policies))
			for pi, p := range f.Policies {
				st.fig9S += t.do("cachesim.Fig9Sweep", func() {
					curves[pi] = core.Fig9Sweep(events, blockBytes, ioNodes, p, f.Buffers)
				}).Seconds()
				for _, r := range curves[pi] {
					st.sim.accesses += r.Accesses
					st.sim.hits += r.Hits
				}
			}
			for bi, buffers := range f.Buffers {
				fmt.Fprintf(&b, "  %10d", buffers)
				for pi := range f.Policies {
					fmt.Fprintf(&b, "  %9.1f%%", 100*curves[pi][bi].Rate())
				}
				fmt.Fprintln(&b)
			}
		}
	}
	if c := plan.Combined; c != nil {
		for _, p := range c.Policies {
			sep()
			var res cachesim.CombinedResult
			st.combinedS += t.do("cachesim.CombinedPolicy", func() {
				res = cachesim.CombinedPolicy(events, blockBytes, c.IONodes, c.BuffersPerIONode, p)
			}).Seconds()
			st.sim.accesses += res.IONodeAlone.Accesses + res.IONodeFiltered.Accesses
			st.sim.hits += res.IONodeAlone.Hits + res.IONodeFiltered.Hits
			b.WriteString(core.FormatCombined(res))
		}
	}
	return b.String()
}

// reportText is a scenario's complete text: the scenario report
// (sweep table and cache experiments, what the serve daemon returns)
// followed by every study's full analysis report.
func reportText(res *core.ScenarioResult) string {
	var b strings.Builder
	b.WriteString(res.Format())
	for _, o := range res.Sweep.Outcomes {
		fmt.Fprintf(&b, "\n=== report: %s ===\n\n", o.Spec.Label)
		b.WriteString(o.ReportText)
	}
	return b.String()
}
