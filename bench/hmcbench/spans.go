package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer.
// Spans stay in memory until the run ends; a nil *tracer records
// nothing, which is how untraced phases keep the timed loop free of
// bookkeeping.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call. parent is the ID of the enclosing span (0 at
// the top), and rep the rep it belongs to (-1 for set-up and drivers).
type span struct {
	id, parent int
	name       string
	rep        int
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID, 0 on a nil tracer.
func (t *tracer) begin(name string, parent, rep int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, rep: rep, start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, the self time of every closed span
// with that name: its duration minus the part its children cover.
// Children of one span never overlap, because the benchmark makes its
// layer calls one after another.
func (t *tracer) selfTimes() map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		if s.end == 0 {
			continue // never closed: its call failed
		}
		self[i] += s.end - s.start
		if s.parent != 0 {
			self[s.parent-1] -= s.end - s.start
		}
	}
	out := map[string][]time.Duration{}
	for i, s := range t.spans {
		if s.end != 0 {
			out[s.name] = append(out[s.name], self[i])
		}
	}
	return out
}

// traceEvent is one Chrome trace_event event: a "complete" event (ph X)
// per span, plus a metadata event (ph M) naming each process. Perfetto
// and chrome://tracing load a list of them.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace_event JSON: one process
// per workload, named after it, with one thread. Timestamps are
// microseconds since the first workload's tracer began.
func writeChrome(w io.Writer, runs []*tracer, names []string) error {
	events := []traceEvent{}
	for i, t := range runs {
		pid := i + 1
		events = append(events, traceEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": names[i]}})
		offset := t.t0.Sub(runs[0].t0)
		t.mu.Lock()
		for _, s := range t.spans {
			events = append(events, traceEvent{
				Name: s.name, Ph: "X", Pid: pid, Tid: 1,
				Ts:   float64(offset+s.start) / 1e3,
				Dur:  float64(s.end-s.start) / 1e3,
				Args: map[string]any{"id": s.id, "parent": s.parent, "rep": s.rep},
			})
		}
		t.mu.Unlock()
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
