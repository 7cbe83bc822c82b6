package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json's metric lists
// and the metrics the program reports in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		var got, want []string
		for _, m := range c.listed {
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, d := range c.defs {
			want = append(want, d.name+" "+d.unit)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json %s = %v, program reports %v", c.name, got, want)
		}
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, program defines %d", names, len(workloads))
	}
}

// tinyRun runs one workload at the smallest scale with the shortest
// phases.
func tinyRun(t *testing.T, workload string, seed uint64, traced bool) *result {
	t.Helper()
	res, err := run(options{workload: workload, seed: seed, seconds: 0.01, trace: traced, root: "..", tiny: true}, io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s seed %d: correct %v, %d of %d operations failed", workload, seed, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

// checkMetrics asserts that res reports exactly defs, each finite and
// with its unit.
func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %+v (present %v), want a finite value in %s", d.name, m, ok, d.unit)
		}
	}
}

func metricNames(res *result) []string {
	var names []string
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload at tiny scale: every metric is
// reported with its unit and is finite, the same seed reproduces the
// outputs' digests, another seed changes them, and the metric names
// do not depend on the seed.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			a := tinyRun(t, name, 1, false)
			b := tinyRun(t, name, 1, false)
			c := tinyRun(t, name, 2, false)
			checkMetrics(t, a, endToEnd)
			if !reflect.DeepEqual(a.digests, b.digests) {
				t.Errorf("seed 1 twice gave digests %v and %v", a.digests, b.digests)
			}
			for i := range a.digests {
				if i < len(c.digests) && a.digests[i] == c.digests[i] {
					t.Errorf("seeds 1 and 2 gave the same digest %d: %s", i, a.digests[i])
				}
			}
			if !reflect.DeepEqual(metricNames(a), metricNames(c)) {
				t.Errorf("metric names depend on the seed: %v vs %v", metricNames(a), metricNames(c))
			}
			tr := tinyRun(t, name, 1, true)
			checkMetrics(t, tr, perLayer)
			if !reflect.DeepEqual(tr.digests, a.digests) {
				t.Errorf("traced run's digests %v differ from the untraced run's %v", tr.digests, a.digests)
			}
		})
	}
}

// TestStagedWalkMatchesRunScenario guards the staged walk against
// drift from core's own pipeline: for two seeds of every workload's
// report spec, at the workload's real scale unless -short, the walk's
// report must equal core.RunScenario's byte for byte.
func TestStagedWalkMatchesRunScenario(t *testing.T) {
	for name, wl := range workloads {
		for _, seed := range []uint64{1, 2} {
			o := options{seed: seed, root: "..", tiny: testing.Short()}
			spec, err := wl.spec(o, wl.jobSeeds(o, 0))
			if err != nil {
				t.Fatal(err)
			}
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
			got, _, err := staged(nil, spec)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			res, err := core.RunScenario(context.Background(), spec)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if want := reportText(res); got != want {
				t.Errorf("%s seed %d: staged report (%d bytes) differs from RunScenario's (%d bytes) near byte %d",
					name, seed, len(got), len(want), firstDiff(got, want))
			}
		}
	}
}

func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestStagedWalkRefusesLargeScale pins the one core adjustment the
// walk does not mirror.
func TestStagedWalkRefusesLargeScale(t *testing.T) {
	_, _, err := studyParams(core.DefaultConfig(1, 0.5))
	if err == nil || !strings.Contains(err.Error(), "0.2") {
		t.Fatalf("studyParams at scale 0.5: err %v, want a refusal", err)
	}
}
