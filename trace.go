package hmcsim

import (
	"context"
	"io"

	"hmcsim/internal/obs"
)

// TraceCollector accumulates per-component tracer state from every
// system built with Options.NewSystemCtx under its context: vault queue
// occupancy, link utilization, NoC hops, and host tag-pool pressure,
// both as run totals and as activity over simulated time. Obtain one
// with WithTrace; read or export it after the experiment finishes.
type TraceCollector struct {
	col obs.Collector
}

// WithTrace returns a context under which Options.NewSystemCtx attaches
// tracers to every system it builds, and the collector that aggregates
// them. Tracing adds a few percent of overhead to the kernel hot paths,
// and each traced system keeps a timeline of fixed-size buckets (about
// 2 KB per component) for WriteChromeTrace; runs without WithTrace pay
// nothing.
func WithTrace(ctx context.Context) (context.Context, *TraceCollector) {
	tc := &TraceCollector{}
	return context.WithValue(ctx, traceKey{}, tc), tc
}

type traceKey struct{}

func collectorFrom(ctx context.Context) *TraceCollector {
	tc, _ := ctx.Value(traceKey{}).(*TraceCollector)
	return tc
}

// String renders a human-readable per-component summary.
func (tc *TraceCollector) String() string { return tc.col.Summary().String() }

// MarshalJSON renders the summary as JSON, for embedding alongside
// experiment results.
func (tc *TraceCollector) MarshalJSON() ([]byte, error) { return tc.col.Summary().JSON() }

// Systems returns how many systems contributed tracers so far.
func (tc *TraceCollector) Systems() int { return tc.col.Systems() }

// WriteChromeTrace renders the traced systems' activity over simulated
// time as Chrome trace_event JSON — one process per system, one counter
// series per component — loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Each timeline keeps a fixed number of buckets and
// doubles their width whenever the run outgrows them, so memory stays
// bounded however long the run. Valid (empty) output is produced even
// when no system was traced.
func (tc *TraceCollector) WriteChromeTrace(w io.Writer) error { return tc.col.WriteChromeTrace(w) }
