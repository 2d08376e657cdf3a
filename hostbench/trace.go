package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Layers a span can belong to, named after the packages whose public
// calls the span wraps. "bench" is the benchmark's own op span.
var layers = []string{"bench", "serve", "core", "graph", "compiler", "exec", "ops"}

// span is one timed interval around a call into a layer. All spans of one
// op share op; parent is the enclosing span's id (0 for the op's root).
type span struct {
	id, parent, op int64
	layer, name    string
	start, end     time.Duration // since the tracer epoch
}

// tracer holds spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so untraced runs pay one nil
// check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
	ops   int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s span
}

// newOp allocates an op id and opens its root span.
func (t *tracer) newOp(name string) *openSpan { return t.newOpAt(name, time.Now()) }

// newOpAt is newOp for an op timed from an earlier instant (an open-loop
// arrival's due time).
func (t *tracer) newOpAt(name string, at time.Time) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.ops++
	op := t.ops
	t.mu.Unlock()
	return t.open(op, 0, "bench", name, at)
}

func (t *tracer) open(op, parent int64, layer, name string, at time.Time) *openSpan {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &openSpan{t: t, s: span{id: id, parent: parent, op: op, layer: layer, name: name,
		start: at.Sub(t.epoch)}}
}

// child opens a span nested in s. Nil-safe.
func (s *openSpan) child(layer, name string) *openSpan {
	if s == nil {
		return nil
	}
	return s.t.open(s.s.op, s.s.id, layer, name, time.Now())
}

func (s *openSpan) end() {
	if s == nil {
		return
	}
	s.s.end = time.Since(s.t.epoch)
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.s)
	s.t.mu.Unlock()
}

// timed runs fn inside a child span of parent (no span when parent is
// nil) and returns fn's wall time.
func timed(parent *openSpan, layer, name string, fn func()) time.Duration {
	sp := parent.child(layer, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	sp.end()
	return d
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each layer's self time in milliseconds, summed over
// all spans: a span's duration minus the part of it its child spans
// cover. Ops are counted by their root spans.
func selfTimes(spans []span) (self map[string]float64, ops int) {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		} else {
			ops++
		}
	}
	self = map[string]float64{}
	for _, s := range spans {
		dur := s.end - s.start
		self[s.layer] += msOf(dur - covered(s, kids[s.id]))
	}
	return self, ops
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, p.start), min(k.end, p.end)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// chromeEvent is one Chrome trace_event entry; args are strings, as the
// repository's trace validator expects.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChrome exports spans in the Chrome trace_event format: one process
// for the benchmark's wall clock and one thread row per op, so an op's
// spans nest on its own row.
func writeChrome(w io.Writer, spans []span, title string) error {
	events := []chromeEvent{{Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]string{"name": title}}}
	rows := map[int64]bool{}
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].start != sorted[j].start {
			return sorted[i].start < sorted[j].start
		}
		return sorted[i].id < sorted[j].id
	})
	for _, s := range sorted {
		if !rows[s.op] {
			rows[s.op] = true
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: s.op,
				Args: map[string]string{"name": fmt.Sprintf("op %d", s.op)}})
		}
		dur := float64(s.end-s.start) / 1e3
		events = append(events, chromeEvent{
			Name: s.name, Cat: s.layer, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: &dur, PID: 1, TID: s.op,
			Args: map[string]string{
				"op": strconv.FormatInt(s.op, 10), "span": strconv.FormatInt(s.id, 10),
				"parent": strconv.FormatInt(s.parent, 10), "layer": s.layer},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}
