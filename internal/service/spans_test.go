package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"hmcsim"
)

// sumStages adds up a span view's stage durations.
func sumStages(v SpanView) float64 {
	var sum float64
	for _, st := range v.Stages {
		sum += st.DurMs
	}
	return sum
}

// stageNames extracts the stage names in order.
func stageNames(v SpanView) []string {
	names := make([]string, len(v.Stages))
	for i, st := range v.Stages {
		names[i] = st.Name
	}
	return names
}

// TestSpansTileJobLatency: a worker-run job's stages cover the full
// lifecycle in order, tile contiguously from zero, and sum exactly to
// the view's end-to-end latency.
func TestSpansTileJobLatency(t *testing.T) {
	fake := newFake("e")
	fake.delay = 5 * time.Millisecond
	_, c := newTestServer(t, Config{Workers: 1}, fake)

	ctx := context.Background()
	v, err := c.Submit(ctx, hmcsim.Spec{Exp: "e"})
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, c, v.ID)

	sv, err := c.Spans(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sv.ID != v.ID || sv.State != StateDone || sv.Cached {
		t.Fatalf("span view header mismatch: %+v", sv)
	}
	if sv.Worker < 0 {
		t.Fatalf("worker-run job has Worker %d, want >= 0", sv.Worker)
	}
	want := []string{"received", "queued", "cache-check", "running", "marshal", "done"}
	got := stageNames(sv)
	if len(got) != len(want) {
		t.Fatalf("stages %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stage %d is %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}
	// Contiguity: each stage starts where the previous one ended.
	var cursor float64
	for _, st := range sv.Stages {
		if math.Abs(st.StartMs-cursor) > 0.002 {
			t.Fatalf("stage %q starts at %.3f, want %.3f (gap in timeline)", st.Name, st.StartMs, cursor)
		}
		if st.DurMs < 0 {
			t.Fatalf("stage %q has negative duration %.3f", st.Name, st.DurMs)
		}
		cursor = st.StartMs + st.DurMs
	}
	// The acceptance bar: stage durations sum to the observed
	// end-to-end latency. Each stage is microsecond-truncated, so allow
	// one truncation step per stage.
	if diff := math.Abs(sumStages(sv) - sv.TotalMs); diff > 0.001*float64(len(sv.Stages)) {
		t.Fatalf("stages sum to %.3f ms, TotalMs %.3f ms (diff %.3f)", sumStages(sv), sv.TotalMs, diff)
	}
	if diff := math.Abs(sv.TotalMs - done.ElapsedMs); diff > 0.002 {
		t.Fatalf("span TotalMs %.3f, job ElapsedMs %.3f", sv.TotalMs, done.ElapsedMs)
	}
	if sv.TotalMs < 5 {
		t.Fatalf("TotalMs %.3f ms, want >= the runner's 5 ms delay", sv.TotalMs)
	}
}

// TestSpansCacheHit: a submission-time cache hit never touches a
// worker — its spans collapse to received/cache-check/done with
// Worker -1, and the durations still tile TotalMs.
func TestSpansCacheHit(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1}, newFake("e"))
	ctx := context.Background()

	spec := hmcsim.Spec{Exp: "e", Options: hmcsim.Options{Seed: 7}}
	v1, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, v1.ID)

	v2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Cached {
		t.Fatalf("second submission not served from cache: %+v", v2)
	}
	sv, err := c.Spans(ctx, v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !sv.Cached || sv.Worker != -1 {
		t.Fatalf("cache-hit spans report Cached=%v Worker=%d, want true/-1", sv.Cached, sv.Worker)
	}
	for _, st := range sv.Stages {
		if st.Name == "running" || st.Name == "marshal" {
			t.Fatalf("cache-hit job has a %q stage: %v", st.Name, stageNames(sv))
		}
	}
	if diff := math.Abs(sumStages(sv) - sv.TotalMs); diff > 0.001*float64(len(sv.Stages)) {
		t.Fatalf("cache-hit stages sum %.3f, TotalMs %.3f", sumStages(sv), sv.TotalMs)
	}
}

// TestSpansTraceIDPropagation: the client's X-Hmcsim-Trace-Id header
// lands on the created job and flows into its span view; oversized IDs
// are clamped, not rejected.
func TestSpansTraceIDPropagation(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1}, newFake("e"))
	c.TraceID = "trace-abc123"
	ctx := context.Background()

	v, err := c.Submit(ctx, hmcsim.Spec{Exp: "e"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, v.ID)
	sv, err := c.Spans(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sv.TraceID != "trace-abc123" {
		t.Fatalf("span TraceID %q, want %q", sv.TraceID, "trace-abc123")
	}

	// A hostile ID is truncated to the bound.
	long := make([]byte, 3*maxTraceID)
	for i := range long {
		long[i] = 'x'
	}
	c.TraceID = string(long)
	v2, err := c.Submit(ctx, hmcsim.Spec{Exp: "e", Options: hmcsim.Options{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, v2.ID)
	sv2, err := c.Spans(ctx, v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(sv2.TraceID) != maxTraceID {
		t.Fatalf("oversized trace ID stored as %d bytes, want clamped to %d", len(sv2.TraceID), maxTraceID)
	}
}

// syncBuffer is a mutex-guarded log sink: the slog handler writes from
// worker goroutines while the test polls String.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// failRunner always fails.
type failRunner struct{ name string }

func (f failRunner) Name() string     { return f.name }
func (f failRunner) Describe() string { return "always fails" }
func (f failRunner) Run(ctx context.Context, o hmcsim.Options) (hmcsim.Result, error) {
	return hmcsim.Result{}, fmt.Errorf("vault meltdown")
}

// TestJobLogRecordsTrace: the structured logger emits "job admitted"
// and "job finished" JSON records carrying the submission's trace ID,
// and a failed job's finished record carries its state and error.
func TestJobLogRecordsTrace(t *testing.T) {
	const traceID = "cafe0123cafe0123"
	var logBuf syncBuffer
	cfg := Config{
		Workers: 1,
		Logger:  slog.New(slog.NewJSONHandler(&logBuf, nil)),
	}
	_, c := newTestServer(t, cfg, newFake("e"), failRunner{name: "bad"})
	c.TraceID = traceID
	ctx := context.Background()

	v, err := c.Submit(ctx, hmcsim.Spec{Exp: "e"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, v.ID)
	bad, err := c.Submit(ctx, hmcsim.Spec{Exp: "bad"})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, bad.ID)

	// The finished record is logged inside the terminal transition,
	// which the watch may observe first; give the write a moment.
	deadline := time.Now().Add(2 * time.Second)
	for strings.Count(logBuf.String(), "job finished") < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	type record struct {
		Msg     string `json:"msg"`
		Job     string `json:"job"`
		TraceID string `json:"traceId"`
		State   string `json:"state"`
		Error   string `json:"error"`
	}
	seen := map[string]record{}
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		if rec.Job == "" {
			continue
		}
		seen[rec.Job+" "+rec.Msg] = rec
		if rec.TraceID != traceID {
			t.Errorf("%q record of %s has traceId %q, want %q", rec.Msg, rec.Job, rec.TraceID, traceID)
		}
	}
	for _, want := range []string{v.ID + " job admitted", v.ID + " job finished", bad.ID + " job finished"} {
		if _, ok := seen[want]; !ok {
			t.Errorf("structured log has no %q record:\n%s", want, logBuf.String())
		}
	}
	if r := seen[bad.ID+" job finished"]; r.State != string(StateFailed) || !strings.Contains(r.Error, "vault meltdown") {
		t.Errorf("failed job logged as %+v", r)
	}
}

// TestSpansUnknownJob: asking for spans of a job that does not exist is
// a clean 404.
func TestSpansUnknownJob(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1}, newFake("e"))
	_, err := c.Spans(context.Background(), "nope")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("want 404 APIError, got %v", err)
	}
}

// TestSpansLiveJob: a job still running reports only the stages it has
// reached — no premature "done" — and TotalMs grows with wall time.
func TestSpansLiveJob(t *testing.T) {
	fake := newBlockingFake("e")
	_, c := newTestServer(t, Config{Workers: 1}, fake)
	ctx := context.Background()

	v, err := c.Submit(ctx, hmcsim.Spec{Exp: "e"})
	if err != nil {
		t.Fatal(err)
	}
	<-fake.started
	sv, err := c.Spans(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if sv.State != StateRunning {
		t.Fatalf("state %s, want running", sv.State)
	}
	for _, st := range sv.Stages {
		if st.Name == "done" || st.Name == "running" || st.Name == "marshal" {
			t.Fatalf("live job already reports stage %q: %v", st.Name, stageNames(sv))
		}
	}
	if sv.TotalMs <= 0 {
		t.Fatalf("live job TotalMs %.3f, want > 0", sv.TotalMs)
	}
	close(fake.release)
	waitJob(t, c, v.ID)
}

// TestFleetSpansAggregation is the end-to-end acceptance check: jobs
// submitted through a Fleet come back with span breakdowns whose stages
// sum (within tolerance) to the observed end-to-end latency, all
// stamped with the fleet run's shared trace ID.
func TestFleetSpansAggregation(t *testing.T) {
	var clients []*Client
	for i := 0; i < 2; i++ {
		fake := newFake("e")
		fake.delay = 2 * time.Millisecond
		_, c := newFleetDaemon(t, Config{Workers: 2}, fake)
		clients = append(clients, c)
	}

	type spanReport struct {
		daemon string
		seed   uint64
		sv     SpanView
	}
	var reports []spanReport
	f := &Fleet{
		Clients: clients,
		OnSpans: func(daemon string, spec hmcsim.Spec, sv SpanView) {
			reports = append(reports, spanReport{daemon, spec.Options.Seed, sv})
		},
	}

	specs := seedSpecs("e", 6)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	views, err := f.Run(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	// OnSpans callbacks are serialized under the fleet's log mutex and
	// all fire before Run returns.
	if len(reports) != len(specs) {
		t.Fatalf("got %d span reports for %d specs", len(reports), len(specs))
	}
	traceIDs := map[string]bool{}
	daemons := map[string]bool{}
	for _, r := range reports {
		if r.sv.TraceID == "" {
			t.Fatalf("fleet span report missing trace ID: %+v", r.sv)
		}
		traceIDs[r.sv.TraceID] = true
		daemons[r.daemon] = true
		if len(r.sv.Stages) == 0 {
			t.Fatalf("span report for %s has no stages", r.sv.ID)
		}
		if diff := math.Abs(sumStages(r.sv) - r.sv.TotalMs); diff > 0.001*float64(len(r.sv.Stages)) {
			t.Fatalf("job %s stages sum %.3f, TotalMs %.3f", r.sv.ID, sumStages(r.sv), r.sv.TotalMs)
		}
	}
	if len(traceIDs) != 1 {
		t.Fatalf("fleet run stamped %d distinct trace IDs, want 1: %v", len(traceIDs), traceIDs)
	}
	if len(daemons) != 2 {
		t.Fatalf("span reports cover %d daemons, want 2", len(daemons))
	}
	// Each report's TotalMs matches the corresponding returned view's
	// end-to-end latency. Job IDs are per-daemon sequences (two daemons
	// both mint a j000001), so correlate by the spec's seed: views come
	// back in submission order, and every seeded spec is distinct.
	for _, r := range reports {
		i := int(r.seed) - 1
		if i < 0 || i >= len(views) {
			t.Fatalf("span report for unknown seed %d", r.seed)
		}
		if diff := math.Abs(r.sv.TotalMs - views[i].ElapsedMs); diff > 0.002 {
			t.Fatalf("seed %d span TotalMs %.3f, view ElapsedMs %.3f", r.seed, r.sv.TotalMs, views[i].ElapsedMs)
		}
	}
}
