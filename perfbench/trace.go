package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanSchema versions the span file the traced mode writes.
const spanSchema = "perfbench-spans/1"

// span is one timed interval at a layer boundary. Every span of one op
// shares Op; the op's client-side root span has Parent 0.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Op     int64            `json:"op"`
	Name   string           `json:"name"`
	Layer  string           `json:"layer"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: every method is a no-op, so untraced runs pay one nil
// check per boundary.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id allocates a span or op identifier (never 0).
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.t0).Nanoseconds() }

// record stores a finished span and returns its id.
func (t *tracer) record(s span) int64 {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// interval records [start, end) as a span named name in layer under
// parent, returning the span id.
func (t *tracer) interval(op, parent int64, name, layer string, start, end time.Time, attrs map[string]int64) int64 {
	if t == nil {
		return 0
	}
	return t.record(span{Parent: parent, Op: op, Name: name, Layer: layer,
		Start: t.at(start), End: t.at(end), Attrs: attrs})
}

// runChildren attaches a RunReport's durations under the span that made
// the call ending at end: the run's wall time ends with the call, and
// starts with the admission wait. Their exact placement inside the
// call is not observable from outside, so only the lengths carry
// meaning, which is all self-time arithmetic needs.
func (t *tracer) runChildren(op, parent int64, end time.Time, layer string, wall, admission time.Duration, attrs map[string]int64) {
	if t == nil || wall <= 0 {
		return
	}
	runStart := end.Add(-wall)
	if admission > 0 {
		t.interval(op, parent, "admission.wait", "admission", runStart, runStart.Add(admission), nil)
	}
	t.interval(op, parent, layer+".run", layer, runStart.Add(admission), end, attrs)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as one JSON document at path.
func (t *tracer) write(path string, meta map[string]any) error {
	doc := map[string]any{"schema": spanSchema, "meta": meta, "spans": t.snapshot()}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// selfTimes returns, per layer, the summed self time of its spans: a
// span's duration minus the part of its interval that its children
// cover. Children may nest, overlap each other (parallel calls) or
// stick out of the parent; each instant of the parent is subtracted at
// most once.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Layer] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns how much of [start, end) the union of the children's
// intervals covers.
func covered(start, end int64, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	for i := 0; i < len(ivs); {
		a, b := ivs[i].a, ivs[i].b
		for i++; i < len(ivs) && ivs[i].a <= b; i++ {
			b = max(b, ivs[i].b)
		}
		total += b - a
	}
	return total
}
