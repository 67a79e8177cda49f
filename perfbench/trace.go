package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded from the
// benchmark's side of the call. Parent is the index of the enclosing span
// (-1 at the root); Probe marks calls the untraced run does not make
// (shadow path builds, row replays, cache probes), so the tracing overhead
// can be computed on the work both runs share.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Probe    bool   `json:"probe,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory for one repetition. A nil tracer records
// nothing, so untraced repetitions pay one nil check per call site.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span nested in the innermost open one and returns its id.
func (t *tracer) begin(name string, probe bool) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartNS: int64(time.Since(t.t0)), Probe: probe || (parent >= 0 && t.spans[parent].Probe)})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	t.open = t.open[:n-1]
	t.spans[id].EndNS = int64(time.Since(t.t0))
}

// do runs fn inside a span.
func (t *tracer) do(name string, probe bool, fn func()) {
	id := t.begin(name, probe)
	defer t.end(id)
	fn()
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums each span name's self time: its duration minus the part
// its direct children cover. Calls are serial, so children never overlap.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += s.dur() - child[i]
	}
	return out
}

// durations lists the durations of every span called name, ascending.
func durations(spans []span, name string) []time.Duration {
	var ds []time.Duration
	for _, s := range spans {
		if s.Name == name {
			ds = append(ds, s.dur())
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
}

// probeTime sums the top-level probe spans: work only the traced run does.
func probeTime(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Probe && (s.Parent < 0 || !spans[s.Parent].Probe) {
			d += s.dur()
		}
	}
	return d
}
