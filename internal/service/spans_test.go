package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"hmcsim"
)

// stageNames extracts the stage names in order.
func stageNames(v JobView) []string {
	names := make([]string, len(v.Stages))
	for i, st := range v.Stages {
		names[i] = st.Name
	}
	return names
}

// checkTiles asserts that a terminal view's stages run contiguously
// from zero and sum to its ElapsedMs. Each stage is truncated to the
// microsecond, so the sum may miss by one truncation step per stage.
func checkTiles(t *testing.T, v JobView) {
	t.Helper()
	if len(v.Stages) == 0 || v.Stages[len(v.Stages)-1].Name != "done" {
		t.Fatalf("job %s: stages %v do not end in done", v.ID, stageNames(v))
	}
	var cursor, sum float64
	for _, st := range v.Stages {
		if math.Abs(st.StartMs-cursor) > 0.002 {
			t.Fatalf("job %s: stage %q starts at %.3f, want %.3f (gap in timeline)", v.ID, st.Name, st.StartMs, cursor)
		}
		if st.DurMs < 0 {
			t.Fatalf("job %s: stage %q has negative duration %.3f", v.ID, st.Name, st.DurMs)
		}
		cursor = st.StartMs + st.DurMs
		sum += st.DurMs
	}
	if diff := math.Abs(sum - v.ElapsedMs); diff > 0.001*float64(len(v.Stages)) {
		t.Fatalf("job %s: stages sum to %.3f ms, ElapsedMs %.3f ms (diff %.3f)", v.ID, sum, v.ElapsedMs, diff)
	}
}

// TestSpansTileJobLatency: a worker-run job's view carries every
// lifecycle stage in order, contiguous from zero, summing to the view's
// end-to-end latency.
func TestSpansTileJobLatency(t *testing.T) {
	fake := newFake("e")
	fake.delay = 5 * time.Millisecond
	_, c := newTestServer(t, Config{Workers: 1}, fake)

	v, err := c.Submit(context.Background(), hmcsim.Spec{Exp: "e"})
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, c, v.ID)
	if done.State != StateDone || done.Cached {
		t.Fatalf("job view %+v, want a simulated done job", done)
	}
	want := []string{"received", "queued", "cache-check", "running", "marshal", "done"}
	if got := stageNames(done); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("stages %v, want %v", got, want)
	}
	checkTiles(t, done)
	if done.ElapsedMs < 5 {
		t.Fatalf("ElapsedMs %.3f ms, want >= the runner's 5 ms delay", done.ElapsedMs)
	}
}

// TestSpansCacheHit: a submission-time cache hit never touches a
// worker, so its view has no running or marshal stage, and its stages
// still tile ElapsedMs.
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
	for _, st := range v2.Stages {
		if st.Name == "running" || st.Name == "marshal" {
			t.Fatalf("cache-hit job has a %q stage: %v", st.Name, stageNames(v2))
		}
	}
	checkTiles(t, v2)
}

// TestSpansLiveJob: a job still running reports only the stages it has
// reached: no running, marshal or done stage yet.
func TestSpansLiveJob(t *testing.T) {
	fake := newBlockingFake("e")
	_, c := newTestServer(t, Config{Workers: 1}, fake)
	ctx := context.Background()

	v, err := c.Submit(ctx, hmcsim.Spec{Exp: "e"})
	if err != nil {
		t.Fatal(err)
	}
	<-fake.started
	live, err := c.Job(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if live.State != StateRunning {
		t.Fatalf("state %s, want running", live.State)
	}
	if len(live.Stages) == 0 || live.Stages[0].Name != "received" {
		t.Fatalf("live job stages %v, want them to start with received", stageNames(live))
	}
	for _, st := range live.Stages {
		if st.Name == "done" || st.Name == "running" || st.Name == "marshal" {
			t.Fatalf("live job already reports stage %q: %v", st.Name, stageNames(live))
		}
	}
	close(fake.release)
	waitJob(t, c, v.ID)
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
// and "job finished" JSON records carrying the job's spec key, and a
// failed job's finished record carries its state and error.
func TestJobLogRecordsTrace(t *testing.T) {
	var logBuf syncBuffer
	cfg := Config{
		Workers: 1,
		Logger:  slog.New(slog.NewJSONHandler(&logBuf, nil)),
	}
	_, c := newTestServer(t, cfg, newFake("e"), failRunner{name: "bad"})
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
	keys := map[string]string{v.ID: v.Key, bad.ID: bad.Key}

	// The finished record is logged inside the terminal transition,
	// which the watch may observe first; give the write a moment.
	deadline := time.Now().Add(2 * time.Second)
	for strings.Count(logBuf.String(), "job finished") < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	type record struct {
		Msg   string `json:"msg"`
		Job   string `json:"job"`
		Key   string `json:"key"`
		State string `json:"state"`
		Error string `json:"error"`
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
		if rec.Key == "" || rec.Key != keys[rec.Job] {
			t.Errorf("%q record of %s has key %q, want %q", rec.Msg, rec.Job, rec.Key, keys[rec.Job])
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

// TestFleetSpansAggregation: OnSpans receives every unique spec's
// terminal view from the daemon that ran it, stages included, and each
// view's stages tile its end-to-end latency.
func TestFleetSpansAggregation(t *testing.T) {
	var clients []*Client
	for i := 0; i < 2; i++ {
		fake := newFake("e")
		fake.delay = 2 * time.Millisecond
		_, c := newFleetDaemon(t, Config{Workers: 2}, fake)
		clients = append(clients, c)
	}

	daemons := map[string]bool{}
	bySeed := map[uint64]JobView{}
	f := &Fleet{
		Clients: clients,
		OnSpans: func(daemon string, spec hmcsim.Spec, sv SpanView) {
			daemons[daemon] = true
			bySeed[spec.Options.Seed] = sv
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	specs := seedSpecs("e", 6)
	views, err := f.Run(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	// OnSpans calls are serialized under the fleet's log mutex and all
	// happen before Run returns.
	if len(bySeed) != len(specs) {
		t.Fatalf("OnSpans saw %d specs, want %d", len(bySeed), len(specs))
	}
	if len(daemons) != 2 {
		t.Fatalf("OnSpans covers %d daemons, want 2", len(daemons))
	}
	for i, v := range views {
		sv := bySeed[specs[i].Options.Seed]
		if sv.ID != v.ID || sv.ElapsedMs != v.ElapsedMs || len(sv.Stages) != len(v.Stages) {
			t.Fatalf("seed %d: OnSpans view %+v differs from the returned view %+v", i+1, sv, v)
		}
		checkTiles(t, sv)
	}
}

// jobPath matches a job ID in a request path, so request counts can be
// compared across daemons that mint the same IDs at different times.
var jobPath = regexp.MustCompile(`/v1/jobs/[^/]+`)

// TestFleetOnSpansMakesNoRequest: OnSpans reads the terminal view the
// fleet already holds, so a run with it makes exactly the requests of a
// run without it, for watched jobs and for cache hits alike.
func TestFleetOnSpansMakesNoRequest(t *testing.T) {
	const n = 3
	requests := func(onSpans bool) map[string]int {
		fake := newBlockingFake("e")
		s := New(Config{Workers: n}, []hmcsim.Runner{fake})
		var mu sync.Mutex
		counts := map[string]int{}
		streams := make(chan struct{}, n)
		handler := s.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			path := jobPath.ReplaceAllString(r.URL.Path, "/v1/jobs/{id}")
			mu.Lock()
			counts[r.Method+" "+path]++
			mu.Unlock()
			if strings.HasSuffix(path, "/progress") {
				streams <- struct{}{}
			}
			handler.ServeHTTP(w, r)
		}))
		t.Cleanup(func() { ts.Close(); s.Close() })

		calls := 0
		f := &Fleet{Clients: []*Client{{Base: ts.URL, HTTP: ts.Client()}}, MaxInflight: n}
		if onSpans {
			f.OnSpans = func(string, hmcsim.Spec, SpanView) { calls++ }
		}
		// Hold every job running until each has its progress stream, so
		// both runs watch all n jobs; the rerun is all cache hits.
		go func() {
			for i := 0; i < n; i++ {
				<-streams
			}
			close(fake.release)
		}()
		for rep := 0; rep < 2; rep++ {
			if _, err := f.Run(context.Background(), seedSpecs("e", n)); err != nil {
				t.Fatal(err)
			}
		}
		if onSpans && calls != 2*n {
			t.Errorf("OnSpans ran %d times, want %d", calls, 2*n)
		}
		mu.Lock()
		defer mu.Unlock()
		return counts
	}
	without, with := requests(false), requests(true)
	if fmt.Sprint(with) != fmt.Sprint(without) {
		t.Fatalf("requests with OnSpans %v, without %v", with, without)
	}
}
