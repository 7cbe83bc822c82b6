package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, as written to the span file.
// Times are nanoseconds since the run's root span started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name's first dot-separated element: the module
// the call enters ("sim" for "sim.Kernel.Run").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer records spans in memory for one workload run. Every call it
// times is made from one goroutine, so the open-span stack gives each
// new span its parent. A nil tracer still times calls but records
// nothing: the untraced run shares the same code.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
	open  []int // indexes into spans
}

// newTracer starts the run's root span.
func newTracer(run string) *tracer {
	t := &tracer{run: run, t0: time.Now()}
	t.spans = append(t.spans, span{ID: 1, Name: "bench.run"})
	t.open = append(t.open, 0)
	return t
}

// do runs f inside a span named name and returns its duration.
func (t *tracer) do(name string, f func()) time.Duration {
	if t == nil {
		start := time.Now()
		f()
		return time.Since(start)
	}
	s := span{ID: len(t.spans) + 1, Parent: t.spans[t.open[len(t.open)-1]].ID, Name: name}
	idx := len(t.spans)
	t.spans = append(t.spans, s)
	t.open = append(t.open, idx)
	start := time.Now()
	f()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	t.spans[idx].Start = start.Sub(t.t0).Nanoseconds()
	t.spans[idx].End = end.Sub(t.t0).Nanoseconds()
	return end.Sub(start)
}

// finish closes the root span.
func (t *tracer) finish() {
	t.spans[0].End = time.Since(t.t0).Nanoseconds()
}

// selfTimes returns each layer's self time in seconds -- the summed
// duration of its spans minus the time their child spans cover -- and
// the root's own remainder, the run time no layer span accounts for.
func (t *tracer) selfTimes() (byLayer map[string]float64, unattributed float64) {
	children := make(map[int]int64, len(t.spans))
	for _, s := range t.spans[1:] {
		children[s.Parent] += s.End - s.Start
	}
	byLayer = make(map[string]float64)
	for _, s := range t.spans[1:] {
		byLayer[s.layer()] += float64(s.End-s.Start-children[s.ID]) / 1e9
	}
	root := t.spans[0]
	return byLayer, float64(root.End-root.Start-children[root.ID]) / 1e9
}

// writeTable prints the per-layer self-time table, unattributed
// remainder included, in descending self time.
func (t *tracer) writeTable(w io.Writer) {
	byLayer, rest := t.selfTimes()
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	wall := float64(t.spans[0].End) / 1e9
	fmt.Fprintf(w, "self time by layer (run %s, %d spans, %.3f s wall):\n", t.run, len(t.spans), wall)
	row := func(name string, s float64) {
		fmt.Fprintf(w, "  %-14s %10.4f s  %5.1f%%\n", name, s, 100*s/wall)
	}
	for _, l := range layers {
		row(l, byLayer[l])
	}
	row("unattributed", rest)
}

// write stores the spans and the self-time summary as one JSON
// document.
func (t *tracer) write(path string) error {
	byLayer, rest := t.selfTimes()
	doc := struct {
		Run          string             `json:"run"`
		Spans        []span             `json:"spans"`
		SelfSeconds  map[string]float64 `json:"self_s"`
		Unattributed float64            `json:"unattributed_s"`
	}{t.run, t.spans, byLayer, rest}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
