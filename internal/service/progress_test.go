package service

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"testing"
	"time"

	"hmcsim"
)

// sweepRunner drives a real hmcsim.Sweep so progress events flow
// through the same WithProgress plumbing production jobs use.
type sweepRunner struct {
	name   string
	points int
	delay  time.Duration
}

func (r sweepRunner) Name() string     { return r.name }
func (r sweepRunner) Describe() string { return "sweep runner " + r.name }

func (r sweepRunner) Run(ctx context.Context, o hmcsim.Options) (hmcsim.Result, error) {
	hmcsim.Sweep(ctx, 1, r.points, func(i int) int {
		time.Sleep(r.delay)
		return i
	})
	if err := ctx.Err(); err != nil {
		return hmcsim.Result{}, err
	}
	return hmcsim.Result{Name: r.name, Text: "swept " + r.name}, nil
}

func TestProgressUnknownJob404(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1}, newFake("e"))
	_, err := c.WatchJob(context.Background(), "j999999", nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("watch of unknown job: got %v, want 404 APIError", err)
	}
}

// TestProgressStreamsSweepPoints is the acceptance test: a watcher of a
// running multi-point sweep observes at least two progress events over
// SSE before the terminal event, and the terminal event closes the
// stream.
func TestProgressStreamsSweepPoints(t *testing.T) {
	const points = 6
	_, c := newTestServer(t, Config{Workers: 1}, sweepRunner{name: "sweep", points: points, delay: 20 * time.Millisecond})
	ctx := context.Background()
	v, err := c.Submit(ctx, hmcsim.Spec{Exp: "sweep"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	var events []JobProgress
	final, err := c.WatchJob(ctx, v.ID, func(p JobProgress) { events = append(events, p) })
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("final view state = %s, want done", final.State)
	}
	if final.Text != "swept sweep" {
		t.Errorf("final view text = %q", final.Text)
	}

	if len(events) == 0 {
		t.Fatal("no events observed")
	}
	term := events[len(events)-1]
	if !term.State.Terminal() {
		t.Fatalf("last event state = %s, want terminal", term.State)
	}
	if term.Done != points || term.Total != points {
		t.Errorf("terminal event = %d/%d, want %d/%d", term.Done, term.Total, points, points)
	}
	live := 0
	sawPartial := false
	for _, p := range events[:len(events)-1] {
		if p.State.Terminal() {
			t.Fatalf("terminal event %+v arrived before the end of the stream", p)
		}
		live++
		if p.Total == points && p.Done > 0 && p.Done < points {
			sawPartial = true
		}
	}
	if live < 2 {
		t.Errorf("observed %d progress events before the terminal one, want >= 2", live)
	}
	if !sawPartial {
		t.Errorf("no mid-sweep event (0 < done < %d) observed; events: %+v", points, events)
	}
}

// TestProgressTerminalReplay: subscribing to an already-finished job
// replays the terminal event immediately and closes the stream.
func TestProgressTerminalReplay(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1}, sweepRunner{name: "sweep", points: 3})
	ctx := context.Background()
	v, err := c.Submit(ctx, hmcsim.Spec{Exp: "sweep"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitJob(t, c, v.ID)

	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	var events []JobProgress
	final, err := c.WatchJob(wctx, v.ID, func(p JobProgress) { events = append(events, p) })
	if err != nil {
		t.Fatalf("watch finished job: %v", err)
	}
	if final.State != StateDone {
		t.Errorf("final view state = %s, want done", final.State)
	}
	if len(events) != 1 {
		t.Fatalf("got %d events replaying a terminal job, want exactly 1: %+v", len(events), events)
	}
	if !events[0].State.Terminal() || events[0].Done != 3 || events[0].Total != 3 {
		t.Errorf("replayed terminal event = %+v, want done state with 3/3", events[0])
	}
}

// TestProgressClientDisconnectLeaksNoGoroutines: watchers that abandon
// their streams must not leave handler or watcher goroutines behind.
func TestProgressClientDisconnectLeaksNoGoroutines(t *testing.T) {
	blocker := newBlockingFake("blocker")
	_, c := newTestServer(t, Config{Workers: 1}, blocker)
	ctx := context.Background()
	v, err := c.Submit(ctx, hmcsim.Spec{Exp: "blocker"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-blocker.started

	base := runtime.NumGoroutine()
	const watchers = 4
	wctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{}, watchers)
	for i := 0; i < watchers; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			c.WatchJob(wctx, v.ID, nil) //nolint:errcheck // error expected: ctx canceled
		}()
	}
	// Let the streams establish (each delivers its initial snapshot).
	time.Sleep(100 * time.Millisecond)
	cancel()
	for i := 0; i < watchers; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("watcher goroutine did not return after cancel")
		}
	}

	// Handler goroutines unwind asynchronously; poll until the count
	// settles back to (near) the pre-watch baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines settled at %d, want <= %d (baseline before watchers)",
				runtime.NumGoroutine(), base+1)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(blocker.release)
	waitJob(t, c, v.ID)
}

// TestStatsLatencyHistograms: /v1/stats summarizes every job's
// admission-to-terminal latency and, for jobs a worker ran, the time
// they waited for it; a cache hit counts toward latency only.
func TestStatsLatencyHistograms(t *testing.T) {
	fake := newFake("e")
	fake.delay = 2 * time.Millisecond
	_, c := newTestServer(t, Config{Workers: 1}, fake)
	ctx := context.Background()

	spec := hmcsim.Spec{Exp: "e", Options: hmcsim.Options{Seed: 3}}
	v, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, v.ID)
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.LatencyMs.Count != 1 || st.QueueWaitMs.Count != 1 {
		t.Fatalf("after a simulated job: latency n=%d, queue wait n=%d, want 1/1", st.LatencyMs.Count, st.QueueWaitMs.Count)
	}
	if st.LatencyMs.Max < 2 {
		t.Fatalf("latency max %d ms, want >= the runner's 2 ms delay", st.LatencyMs.Max)
	}
	if n := len(st.LatencyMs.Buckets); n == 0 || st.LatencyMs.Buckets[n-1].Count != 1 {
		t.Fatalf("latency buckets %+v, want the one sample", st.LatencyMs.Buckets)
	}

	if v2, err := c.Submit(ctx, spec); err != nil || !v2.Cached {
		t.Fatalf("resubmission: %+v, %v; want a cache hit", v2, err)
	}
	st, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.LatencyMs.Count != 2 {
		t.Fatalf("after a cache hit: latency n=%d, want 2", st.LatencyMs.Count)
	}
	if st.QueueWaitMs.Count != 1 {
		t.Fatalf("after a cache hit: queue wait n=%d, want 1 (no worker ran the hit)", st.QueueWaitMs.Count)
	}
}

func TestStatsExtendedFields(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 3}, sweepRunner{name: "sweep", points: 2})
	ctx := context.Background()
	v, err := c.Submit(ctx, hmcsim.Spec{Exp: "sweep"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitJob(t, c, v.ID)

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime = %v, want > 0", st.UptimeSeconds)
	}
	if st.Version == "" {
		t.Error("version is empty")
	}
	if st.Goroutines <= 0 {
		t.Errorf("goroutines = %d, want > 0", st.Goroutines)
	}
	if st.Workers != 3 || len(st.WorkerStats) != 3 {
		t.Fatalf("got %d workers in %d rows, want 3", st.Workers, len(st.WorkerStats))
	}
	var jobs uint64
	var busy float64
	for _, ws := range st.WorkerStats {
		jobs += ws.Jobs
		busy += ws.BusyMs
		if ws.IdleMs < 0 {
			t.Errorf("worker %d idle = %v, want >= 0", ws.Worker, ws.IdleMs)
		}
	}
	if jobs != 1 {
		t.Errorf("workers report %d jobs total, want 1", jobs)
	}
	if busy <= 0 {
		t.Errorf("workers report %v busy ms total, want > 0", busy)
	}
	if st.SweepPoints != 2 {
		t.Errorf("sweepPoints = %d, want 2", st.SweepPoints)
	}
	_ = s
}
