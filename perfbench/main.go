// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed for a fixed time, checks every output it
// produces, and prints its metrics; the last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": 41, "failed": 0, "metrics": {"report_s": {"value": 2.61, "unit": "s"}, ...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 35 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// walks each study stage by stage, records a span around every call
// into a layer, writes the spans to .bench_build/perfbench/, and
// reports the per-layer metrics. README.md describes the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // repository root; testdata is read from here
	tiny     bool   // shrink every workload to scale 0.01 (tests)
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	digests []string // of the checked outputs, for tests
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var traced int
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper, checkpoint or serve")
	flag.Uint64Var(&o.seed, "seed", 42, "seed the workload's inputs are made from")
	flag.Float64Var(&o.seconds, "seconds", 35, "measuring time in seconds")
	flag.IntVar(&traced, "trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.Parse()
	o.trace = traced == 1
	if flag.NArg() > 0 || (traced != 0 && traced != 1) || !(o.seconds > 0) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload run and assembles its result; log receives
// the human-readable summary. An error means the run could not measure
// at all; failed checks are counted in the result instead.
func run(o options, log io.Writer) (*result, error) {
	wl, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want paper, checkpoint or serve)", o.workload)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(runtime.NumCPU(), 2)))
	s, err := newSession(o, wl, log)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(s.work)
	if err := s.run(); err != nil {
		return nil, err
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := &result{Attempted: s.attempted, Failed: s.failed, Metrics: make(map[string]metricValue, len(defs)), digests: s.digests}
	res.Correct = s.failed == 0
	fmt.Fprintf(log, "perfbench %s seed %d (%s run, GOMAXPROCS %d)\n", wl.name, o.seed,
		map[bool]string{false: "untraced", true: "traced"}[o.trace], runtime.GOMAXPROCS(0))
	for _, d := range defs {
		v, ok := s.vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(log, "  %-24s %14.6g %-6s %s\n", d.name, v, d.unit, d.doc)
	}
	fmt.Fprintf(log, "  %-24s %14.6g        failed %d of %d operations\n", "error_rate",
		float64(s.failed)/float64(s.attempted), s.failed, s.attempted)
	for _, e := range s.errs {
		fmt.Fprintln(log, "  FAILED:", e)
	}
	if s.tr != nil {
		s.tr.writeTable(log)
		fmt.Fprintln(log, "spans written to", s.spanPath)
	}
	return res, nil
}
