package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hmcsim"
)

// fakeRunner is a controllable experiment: it can block until released
// (or until its context is canceled) and counts how often it ran.
type fakeRunner struct {
	name    string
	release chan struct{} // nil: return immediately
	started chan struct{} // closed when Run first begins
	delay   time.Duration // simulated work before returning
	once    sync.Once
	runs    atomic.Int32
}

func newFake(name string) *fakeRunner {
	return &fakeRunner{name: name, started: make(chan struct{})}
}

func newBlockingFake(name string) *fakeRunner {
	f := newFake(name)
	f.release = make(chan struct{})
	return f
}

func (f *fakeRunner) Name() string     { return f.name }
func (f *fakeRunner) Describe() string { return "fake experiment " + f.name }

func (f *fakeRunner) Run(ctx context.Context, o hmcsim.Options) (hmcsim.Result, error) {
	f.runs.Add(1)
	f.once.Do(func() { close(f.started) })
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
		}
	}
	if f.release != nil {
		select {
		case <-f.release:
		case <-ctx.Done():
		}
	}
	if err := ctx.Err(); err != nil {
		return hmcsim.Result{}, err
	}
	return hmcsim.Result{
		Name:    f.name,
		Title:   f.Describe(),
		Options: o,
		Series: []hmcsim.Series{{
			Name: "echo", Unit: "seed",
			Points: []hmcsim.Point{{X: 1, Y: float64(o.Seed)}},
		}},
		Text: "text for " + f.name,
	}, nil
}

// newTestServer builds a server plus an httptest frontend over it.
func newTestServer(t *testing.T, cfg Config, runners ...hmcsim.Runner) (*Server, *Client) {
	t.Helper()
	s := New(cfg, runners)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, &Client{Base: ts.URL, HTTP: ts.Client()}
}

func waitJob(t *testing.T, c *Client, id string) JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := c.WatchJob(ctx, id, nil)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return v
}

// TestCacheHitByteIdentical is the acceptance test: submitting the same
// spec twice serves the second submission from the cache with a
// byte-identical result.
func TestCacheHitByteIdentical(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2}, newFake("exp1"))
	ctx := context.Background()
	spec := hmcsim.Spec{Exp: "exp1", Options: hmcsim.Options{Quick: true, Seed: 9}}

	first, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first submission claims a cache hit")
	}
	first = waitJob(t, c, first.ID)
	if first.State != StateDone || len(first.Result) == 0 {
		t.Fatalf("first job did not complete: %+v", first)
	}

	// Same spec, different JSON field order: still one cache key.
	var reordered hmcsim.Spec
	if err := json.Unmarshal([]byte(`{"options":{"seed":9,"quick":true},"exp":"exp1"}`), &reordered); err != nil {
		t.Fatal(err)
	}
	second, err := c.Submit(ctx, reordered)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.State != StateDone {
		t.Fatalf("second submission not served from cache: %+v", second)
	}
	if second.Key != first.Key {
		t.Fatalf("cache keys differ: %s vs %s", second.Key, first.Key)
	}
	if !bytes.Equal(second.Result, first.Result) {
		t.Fatalf("cached result not byte-identical:\n first: %s\nsecond: %s", first.Result, second.Result)
	}
	if second.Text != first.Text {
		t.Fatalf("cached text differs: %q vs %q", second.Text, first.Text)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("cache counters %+v, want 1 hit / 1 miss", st.Cache)
	}
	if st.Jobs[StateDone] != 2 {
		t.Fatalf("job states %v, want 2 done", st.Jobs)
	}
}

// TestCancelQueuedJob is the acceptance test: a job canceled while
// queued transitions to canceled and never runs.
func TestCancelQueuedJob(t *testing.T) {
	blocker := newBlockingFake("slow")
	bystander := newFake("fast")
	fence := newFake("fence")
	_, c := newTestServer(t, Config{Workers: 1, QueueDepth: 8}, blocker, bystander, fence)
	ctx := context.Background()

	// Occupy the only worker.
	j1, err := c.Submit(ctx, hmcsim.Spec{Exp: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.started

	// This job sits in the queue behind the blocker.
	j2, err := c.Submit(ctx, hmcsim.Spec{Exp: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	if j2.State != StateQueued {
		t.Fatalf("second job state %s, want queued", j2.State)
	}

	canceled, err := c.Cancel(ctx, j2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if canceled.State != StateCanceled {
		t.Fatalf("cancel returned state %s, want canceled", canceled.State)
	}

	// Release the worker and run a fence job through the FIFO queue: by
	// the time it finishes, the canceled job has been dequeued (and
	// skipped) before it.
	j3, err := c.Submit(ctx, hmcsim.Spec{Exp: "fence"})
	if err != nil {
		t.Fatal(err)
	}
	close(blocker.release)
	waitJob(t, c, j1.ID)
	waitJob(t, c, j3.ID)

	got := waitJob(t, c, j2.ID)
	if got.State != StateCanceled || len(got.Result) != 0 {
		t.Fatalf("canceled job ended as %+v", got)
	}
	if n := bystander.runs.Load(); n != 0 {
		t.Fatalf("canceled job ran %d times", n)
	}
}

// TestCancelRunningJob: cancelling an in-flight job makes its context
// fire; the runner returns early and the partial result is discarded.
func TestCancelRunningJob(t *testing.T) {
	blocker := newBlockingFake("slow")
	_, c := newTestServer(t, Config{Workers: 1}, blocker)
	ctx := context.Background()

	j, err := c.Submit(ctx, hmcsim.Spec{Exp: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.started
	if _, err := c.Cancel(ctx, j.ID); err != nil {
		t.Fatal(err)
	}
	got := waitJob(t, c, j.ID)
	if got.State != StateCanceled {
		t.Fatalf("running job canceled to state %s", got.State)
	}
	if len(got.Result) != 0 {
		t.Fatal("canceled job kept a partial result")
	}

	// Its spec must not have poisoned the cache.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Entries != 0 {
		t.Fatalf("canceled job cached a result: %+v", st.Cache)
	}
}

func TestQueueFull(t *testing.T) {
	blocker := newBlockingFake("slow")
	_, c := newTestServer(t, Config{Workers: 1, QueueDepth: 1}, blocker)
	defer close(blocker.release)
	ctx := context.Background()

	if _, err := c.Submit(ctx, hmcsim.Spec{Exp: "slow"}); err != nil {
		t.Fatal(err)
	}
	<-blocker.started
	// Distinct seeds keep the specs distinct; the first fills the queue.
	if _, err := c.Submit(ctx, hmcsim.Spec{Exp: "slow", Options: hmcsim.Options{Seed: 1}}); err != nil {
		t.Fatal(err)
	}
	_, err := c.Submit(ctx, hmcsim.Spec{Exp: "slow", Options: hmcsim.Options{Seed: 2}})
	if err == nil || !strings.Contains(err.Error(), "queue is full") {
		t.Fatalf("overflow submission: err = %v, want queue-full 503", err)
	}
}

func TestSubmitUnknownExperiment(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1}, newFake("exp1"))
	_, err := c.Submit(context.Background(), hmcsim.Spec{Exp: "nope"})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v, want unknown-experiment 400", err)
	}
}

// TestSubmitInvalidTrafficSpec: a spec naming an unknown traffic
// pattern must be rejected at submission with a 400 that lists the
// valid patterns — the same message the CLI prints — instead of
// occupying a queue slot and failing later.
func TestSubmitInvalidTrafficSpec(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1}, newFake("traffic"))
	_, err := c.Submit(context.Background(), hmcsim.Spec{
		Exp:     "traffic",
		Options: hmcsim.Options{Traffic: &hmcsim.TrafficSpec{Pattern: "zipfian"}},
	})
	if err == nil {
		t.Fatal("unknown traffic pattern accepted")
	}
	for _, name := range hmcsim.TrafficPatterns() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("400 body %q does not list pattern %q", err, name)
		}
	}
	if n := len(s.Snapshot().Jobs); n != 0 {
		t.Fatalf("invalid spec created %d job records", n)
	}

	// A valid traffic spec on the same runner sails through.
	j, err := c.Submit(context.Background(), hmcsim.Spec{
		Exp:     "traffic",
		Options: hmcsim.Options{Traffic: &hmcsim.TrafficSpec{Pattern: hmcsim.TrafficZipf}},
	})
	if err != nil {
		t.Fatalf("valid traffic spec rejected: %v", err)
	}
	if v := waitJob(t, c, j.ID); v.State != StateDone {
		t.Fatalf("traffic job state %s, want done", v.State)
	}
}

func TestExperimentsHealthzAndJobLookup(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1}, newFake("a"), newFake("b"))
	ctx := context.Background()

	exps, err := c.Experiments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 2 || exps[0].Name != "a" || exps[1].Name != "b" {
		t.Fatalf("experiments = %+v", exps)
	}
	if exps[0].Title == "" {
		t.Fatal("experiment listing lost the description")
	}

	resp, err := c.httpClient().Get(c.Base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %s", resp.Status)
	}
	// /v1/stats is the one aggregate surface: no /metrics or /v1/flight.
	for _, path := range []string{"/metrics", "/v1/flight"} {
		resp, err := c.httpClient().Get(c.Base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %s, want 404", path, resp.Status)
		}
	}

	if _, err := c.Job(ctx, "j999999"); err == nil || !strings.Contains(err.Error(), "no such job") {
		t.Fatalf("missing job lookup: err = %v, want 404", err)
	}
}

// TestWorkerPoolConcurrency: N workers really run N simulations at
// once — two blocking jobs both reach started with two workers.
func TestWorkerPoolConcurrency(t *testing.T) {
	b1 := newBlockingFake("s1")
	b2 := newBlockingFake("s2")
	_, c := newTestServer(t, Config{Workers: 2}, b1, b2)
	ctx := context.Background()

	j1, err := c.Submit(ctx, hmcsim.Spec{Exp: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := c.Submit(ctx, hmcsim.Spec{Exp: "s2"})
	if err != nil {
		t.Fatal(err)
	}
	<-b1.started
	<-b2.started // would deadlock with a single worker
	close(b1.release)
	close(b2.release)
	if v := waitJob(t, c, j1.ID); v.State != StateDone {
		t.Fatalf("j1 = %+v", v)
	}
	if v := waitJob(t, c, j2.ID); v.State != StateDone {
		t.Fatalf("j2 = %+v", v)
	}
}

// TestDuplicateQueuedSpecDeduped: a duplicate spec that was queued
// behind its twin is served from the cache instead of re-simulating.
func TestDuplicateQueuedSpecDeduped(t *testing.T) {
	blocker := newBlockingFake("slow")
	target := newFake("t")
	_, c := newTestServer(t, Config{Workers: 1, QueueDepth: 8}, blocker, target)
	ctx := context.Background()

	jb, err := c.Submit(ctx, hmcsim.Spec{Exp: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.started
	// Two identical specs queue behind the blocker; only one runs.
	ja, err := c.Submit(ctx, hmcsim.Spec{Exp: "t"})
	if err != nil {
		t.Fatal(err)
	}
	jdup, err := c.Submit(ctx, hmcsim.Spec{Exp: "t"})
	if err != nil {
		t.Fatal(err)
	}
	close(blocker.release)
	waitJob(t, c, jb.ID)
	va := waitJob(t, c, ja.ID)
	vdup := waitJob(t, c, jdup.ID)
	if va.State != StateDone || vdup.State != StateDone {
		t.Fatalf("states %s / %s", va.State, vdup.State)
	}
	if target.runs.Load() != 1 {
		t.Fatalf("identical queued specs ran %d times, want 1", target.runs.Load())
	}
	if !vdup.Cached {
		t.Fatal("deduped twin not marked cached")
	}
	if !bytes.Equal(va.Result, vdup.Result) {
		t.Fatal("deduped twin's result not byte-identical")
	}
}

func TestCloseCancelsBacklog(t *testing.T) {
	blocker := newBlockingFake("slow")
	other := newFake("other")
	s := New(Config{Workers: 1, QueueDepth: 8}, []hmcsim.Runner{blocker, other})
	j1, err := s.Submit("", hmcsim.Spec{Exp: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.started
	j2, err := s.Submit("", hmcsim.Spec{Exp: "other"})
	if err != nil {
		t.Fatal(err)
	}
	s.Close() // cancels the running job's ctx and drains the backlog
	if v := j1[0].View(); v.State != StateCanceled {
		t.Fatalf("running job after Close: %s", v.State)
	}
	if v := j2[0].View(); v.State != StateCanceled {
		t.Fatalf("queued job after Close: %s", v.State)
	}
	if other.runs.Load() != 0 {
		t.Fatal("backlog job ran during shutdown")
	}
	if _, err := s.Submit("", hmcsim.Spec{Exp: "other"}); err == nil {
		t.Fatal("submission accepted after Close")
	}
}

// TestJobTablePruning: terminal job records beyond MaxJobs are dropped
// oldest-first, while active jobs are never dropped. Retention is
// disabled so pruning is immediate.
func TestJobTablePruning(t *testing.T) {
	blocker := newBlockingFake("slow")
	fast := newFake("fast")
	s, c := newTestServer(t, Config{Workers: 1, QueueDepth: 8, MaxJobs: 2, Retain: -1}, blocker, fast)
	defer close(blocker.release)
	ctx := context.Background()

	// Two fast jobs complete and fill the table to its bound.
	j1, err := c.Submit(ctx, hmcsim.Spec{Exp: "fast", Options: hmcsim.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, j1.ID)
	j2, err := c.Submit(ctx, hmcsim.Spec{Exp: "fast", Options: hmcsim.Options{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, j2.ID)

	// A third submission evicts the oldest terminal record.
	jb, err := c.Submit(ctx, hmcsim.Spec{Exp: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.started
	if _, ok := s.Job(j1.ID); ok {
		t.Fatal("oldest terminal job survived past MaxJobs")
	}
	if _, ok := s.Job(j2.ID); !ok {
		t.Fatal("newer terminal job was pruned before the oldest")
	}

	// With the blocker running, a fourth submission prunes j2 but must
	// never touch the active job.
	j4, err := c.Submit(ctx, hmcsim.Spec{Exp: "fast", Options: hmcsim.Options{Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Job(jb.ID); !ok {
		t.Fatal("running job was pruned")
	}
	if _, ok := s.Job(j2.ID); ok {
		t.Fatal("terminal job outlived an over-full table")
	}
	if _, ok := s.Job(j4.ID); !ok {
		t.Fatal("fresh job missing")
	}
}

// TestInflightSpecCoalesced: a duplicate of a spec that is already
// RUNNING (not just queued) coalesces onto it even with a free worker
// available, and is served byte-identically once the twin completes.
func TestInflightSpecCoalesced(t *testing.T) {
	blocker := newBlockingFake("slow")
	_, c := newTestServer(t, Config{Workers: 2, QueueDepth: 8}, blocker)
	ctx := context.Background()

	j1, err := c.Submit(ctx, hmcsim.Spec{Exp: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.started
	// The second worker is idle; without coalescing this would simulate
	// a second time.
	j2, err := c.Submit(ctx, hmcsim.Spec{Exp: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	close(blocker.release)
	v1 := waitJob(t, c, j1.ID)
	v2 := waitJob(t, c, j2.ID)
	if v1.State != StateDone || v2.State != StateDone {
		t.Fatalf("states %s / %s", v1.State, v2.State)
	}
	if blocker.runs.Load() != 1 {
		t.Fatalf("in-flight duplicate simulated %d times, want 1", blocker.runs.Load())
	}
	if !v2.Cached || !bytes.Equal(v1.Result, v2.Result) {
		t.Fatalf("coalesced duplicate not served from the twin's cached result: %+v", v2)
	}
}

// TestInflightTwinCanceledFallsBack: when the in-flight twin is
// canceled (so it caches nothing), the waiting duplicate runs on its
// own instead of being dragged down with it.
func TestInflightTwinCanceledFallsBack(t *testing.T) {
	blocker := newBlockingFake("slow")
	_, c := newTestServer(t, Config{Workers: 1, QueueDepth: 8}, blocker)
	ctx := context.Background()

	j1, err := c.Submit(ctx, hmcsim.Spec{Exp: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.started
	j2, err := c.Submit(ctx, hmcsim.Spec{Exp: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, j1.ID); err != nil {
		t.Fatal(err)
	}
	if v := waitJob(t, c, j1.ID); v.State != StateCanceled {
		t.Fatalf("twin state %s, want canceled", v.State)
	}
	// The duplicate re-enqueues itself; the runner blocks again until
	// released, then completes independently.
	close(blocker.release)
	v2 := waitJob(t, c, j2.ID)
	if v2.State != StateDone {
		t.Fatalf("fallback duplicate ended %s: %+v", v2.State, v2)
	}
	if v2.Cached {
		t.Fatal("fallback duplicate claims a cache hit")
	}
	if blocker.runs.Load() != 2 {
		t.Fatalf("runner ran %d times, want 2 (canceled twin + fallback)", blocker.runs.Load())
	}
}

// TestJobRetentionProtectsFreshRecords: within the Retain window a
// just-finished job stays pollable by ID even past the MaxJobs bound.
func TestJobRetentionProtectsFreshRecords(t *testing.T) {
	fast := newFake("fast")
	s, c := newTestServer(t, Config{Workers: 1, MaxJobs: 1, Retain: time.Hour}, fast)
	ctx := context.Background()

	j1, err := c.Submit(ctx, hmcsim.Spec{Exp: "fast", Options: hmcsim.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, j1.ID)
	j2, err := c.Submit(ctx, hmcsim.Spec{Exp: "fast", Options: hmcsim.Options{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, j2.ID)

	// Both records exceed MaxJobs=1, but both finished well inside the
	// retention window, so neither may be pruned.
	for _, id := range []string{j1.ID, j2.ID} {
		if _, ok := s.Job(id); !ok {
			t.Fatalf("fresh terminal job %s was pruned inside the retention window", id)
		}
	}
}

// TestInflightSuccessorReadopted: when a duplicate's twin is canceled
// but a fresh submission of the same spec has already taken over as the
// in-flight representative, the duplicate re-adopts onto the successor
// instead of starting a concurrent second simulation.
func TestInflightSuccessorReadopted(t *testing.T) {
	blocker := newBlockingFake("slow")
	_, c := newTestServer(t, Config{Workers: 2, QueueDepth: 8}, blocker)
	defer func() {
		select {
		case <-blocker.release:
		default:
			close(blocker.release)
		}
	}()
	ctx := context.Background()

	j1, err := c.Submit(ctx, hmcsim.Spec{Exp: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.started
	j2, err := c.Submit(ctx, hmcsim.Spec{Exp: "slow"}) // adopted onto j1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, j1.ID); err != nil {
		t.Fatal(err)
	}
	if v := waitJob(t, c, j1.ID); v.State != StateCanceled {
		t.Fatalf("twin state %s, want canceled", v.State)
	}
	j3, err := c.Submit(ctx, hmcsim.Spec{Exp: "slow"}) // fresh submission of the same spec
	if err != nil {
		t.Fatal(err)
	}
	close(blocker.release)
	v2 := waitJob(t, c, j2.ID)
	v3 := waitJob(t, c, j3.ID)
	if v2.State != StateDone || v3.State != StateDone {
		t.Fatalf("states %s / %s, want done / done", v2.State, v3.State)
	}
	// However j2's wakeup and j3's submission interleave, the spec must
	// simulate exactly twice in total (canceled twin + one successor) —
	// never two live runs of the same spec.
	if n := blocker.runs.Load(); n != 2 {
		t.Fatalf("spec simulated %d times, want 2 (canceled + successor)", n)
	}
	if !v2.Cached && !v3.Cached {
		t.Fatal("neither surviving job was served from the single successful run")
	}
	if !bytes.Equal(v2.Result, v3.Result) {
		t.Fatal("surviving jobs returned different results")
	}
}

// TestSubmitBodyBounded: an oversized POST body is rejected instead of
// buffered into memory.
func TestSubmitBodyBounded(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1}, newFake("exp1"))
	body := `{"exp":"` + strings.Repeat("x", 2<<20) + `"}`
	resp, err := c.httpClient().Post(c.Base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized submit = %s, want 400", resp.Status)
	}
}
