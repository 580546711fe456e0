package service

import (
	"sync"
	"time"

	"hmcsim/internal/obs"
)

// FlightRecord is one completed job in the flight recorder: identity,
// attribution (worker, cache hit/miss, error) and the stage durations
// the span marks measured.
type FlightRecord struct {
	ID      string `json:"id"`
	Exp     string `json:"exp"`
	Key     string `json:"key"`
	TraceID string `json:"traceId,omitempty"`
	State   State  `json:"state"`
	Cached  bool   `json:"cached"`
	// Worker is the pool index that ran the job, -1 when none did.
	Worker int    `json:"worker"`
	Error  string `json:"error,omitempty"`
	// QueueMs is time spent waiting for a worker (0 when no worker ran
	// the job); RunMs is simulation time on the worker; TotalMs is
	// admission-to-terminal latency.
	QueueMs float64 `json:"queueMs"`
	RunMs   float64 `json:"runMs"`
	TotalMs float64 `json:"totalMs"`
	// Slow marks records whose total latency crossed the configured
	// slow-job threshold.
	Slow       bool      `json:"slow,omitempty"`
	FinishedAt time.Time `json:"finishedAt"`
}

// flightRecorder keeps a bounded ring of the last N completed jobs plus
// the latency histograms /metrics exports. Its mutex is a leaf: add is
// called from Job.finishLocked (under the job's lock) and snapshot from
// HTTP handlers, and neither path takes any other lock from here.
type flightRecorder struct {
	mu        sync.Mutex
	ring      []FlightRecord
	next      int
	total     uint64
	slow      uint64
	slowAfter time.Duration // <= 0 disables slow marking
	queueWait obs.Hist      // milliseconds waiting for a worker
	latency   obs.Hist      // milliseconds admission-to-terminal
}

func newFlightRecorder(entries int, slowAfter time.Duration) *flightRecorder {
	return &flightRecorder{
		ring:      make([]FlightRecord, entries),
		slowAfter: slowAfter,
	}
}

// add records one completed job, stamping its Slow flag against the
// threshold and feeding the latency histograms.
func (f *flightRecorder) add(r FlightRecord) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.slowAfter > 0 && r.TotalMs >= f.slowAfter.Seconds()*1000 {
		r.Slow = true
		f.slow++
	}
	f.latency.Observe(int(r.TotalMs))
	if r.Worker >= 0 {
		f.queueWait.Observe(int(r.QueueMs))
	}
	f.ring[f.next] = r
	f.next = (f.next + 1) % len(f.ring)
	f.total++
}

// FlightView is the GET /v1/flight payload.
type FlightView struct {
	// Capacity is the ring size; Total counts every record ever added,
	// so Total - Capacity records have already been overwritten.
	Capacity int    `json:"capacity"`
	Total    uint64 `json:"total"`
	// Slow counts records past the slow-job threshold; the threshold is
	// echoed in milliseconds (0 = disabled).
	Slow            uint64          `json:"slow"`
	SlowThresholdMs float64         `json:"slowThresholdMs"`
	QueueWaitMs     obs.HistSummary `json:"queueWaitMs"`
	LatencyMs       obs.HistSummary `json:"latencyMs"`
	// Records are the retained completions, newest first.
	Records []FlightRecord `json:"records"`
}

// snapshot copies the recorder's state for serving.
func (f *flightRecorder) snapshot() FlightView {
	f.mu.Lock()
	defer f.mu.Unlock()
	v := FlightView{
		Capacity:        len(f.ring),
		Total:           f.total,
		Slow:            f.slow,
		SlowThresholdMs: f.slowAfter.Seconds() * 1000,
		QueueWaitMs:     f.queueWait.Summarize(),
		LatencyMs:       f.latency.Summarize(),
	}
	n := int(f.total)
	if n > len(f.ring) {
		n = len(f.ring)
	}
	for i := 1; i <= n; i++ {
		v.Records = append(v.Records, f.ring[(f.next-i+len(f.ring))%len(f.ring)])
	}
	return v
}

// hists copies the histograms and slow counter for /metrics.
func (f *flightRecorder) hists() (queueWait, latency obs.Hist, slow uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.queueWait, f.latency, f.slow
}
