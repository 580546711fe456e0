package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hmcsim"
)

// newFleetDaemon builds one real daemon and returns both handles.
func newFleetDaemon(t *testing.T, cfg Config, runners ...hmcsim.Runner) (*Server, *Client) {
	t.Helper()
	return newTestServer(t, cfg, runners...)
}

func seedSpecs(exp string, n int) []hmcsim.Spec {
	specs := make([]hmcsim.Spec, n)
	for i := range specs {
		specs[i] = hmcsim.Spec{Exp: exp, Options: hmcsim.Options{Seed: uint64(i + 1)}}
	}
	return specs
}

// TestFleetShardsAcrossDaemons: with three daemons and more work than
// any one daemon's in-flight bound, every daemon receives a share, and
// the views come back terminal in submission order, each decoding into
// its runner's result and rendered text.
func TestFleetShardsAcrossDaemons(t *testing.T) {
	var servers []*Server
	var clients []*Client
	var fakes []*fakeRunner
	for i := 0; i < 3; i++ {
		// Blocking runners pin the split deterministically: with 12
		// items and MaxInflight 4, two dispatchers can hold at most 8,
		// so the third always receives the rest — however late its
		// goroutine starts — and nothing completes until every daemon
		// has started work.
		fake := newBlockingFake("e")
		s, c := newFleetDaemon(t, Config{Workers: 2, QueueDepth: 8}, fake)
		servers = append(servers, s)
		clients = append(clients, c)
		fakes = append(fakes, fake)
	}
	f := &Fleet{Clients: clients, MaxInflight: 4}
	go func() {
		for _, fake := range fakes {
			<-fake.started // every daemon is running at least one job
		}
		for _, fake := range fakes {
			close(fake.release)
		}
	}()

	specs := seedSpecs("e", 12)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	views, err := f.Run(ctx, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != len(specs) {
		t.Fatalf("got %d views for %d specs", len(views), len(specs))
	}
	for i, v := range views {
		res, err := v.Decode()
		if err != nil {
			t.Fatalf("view %d: %v", i, err)
		}
		if res.Name != "e" || res.Text != "text for e" {
			t.Fatalf("view %d decodes to name %q, text %q", i, res.Name, res.Text)
		}
		// Submission order: the echoed seed series must match spec i.
		if got := res.Series[0].Points[0].Y; got != float64(i+1) {
			t.Fatalf("view %d echoes seed %.0f, want %d (results out of submission order)", i, got, i+1)
		}
	}
	for i, s := range servers {
		if n := len(s.Snapshot().Jobs); n == 0 {
			t.Errorf("daemon %d received no work", i)
		}
		if s.Snapshot().Batches == 0 {
			t.Errorf("daemon %d was never batch-submitted", i)
		}
	}
}

// TestFleetFailover: when one daemon accepts a batch and then drops
// every connection, its shard fails over to the surviving peer and the
// run still completes in order.
func TestFleetFailover(t *testing.T) {
	good, goodClient := newFleetDaemon(t, Config{Workers: 2}, newFake("e"))

	// The bad daemon speaks just enough protocol to accept work — it
	// lists the registry and admits batches — then kills every status
	// poll at the TCP level, simulating a daemon dying mid-batch.
	var badSeq int
	var badMu sync.Mutex
	badMux := http.NewServeMux()
	badMux.HandleFunc("GET /v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode([]ExperimentView{{Name: "e", Title: "fake"}}) //nolint:errcheck
	})
	badMux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var specs []hmcsim.Spec
		if err := json.NewDecoder(r.Body).Decode(&specs); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		badMu.Lock()
		views := make([]JobView, len(specs))
		for i, sp := range specs {
			badSeq++
			views[i] = JobView{ID: fmt.Sprintf("x%06d", badSeq), State: StateQueued, Spec: sp}
		}
		badMu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(views) //nolint:errcheck
	})
	badMux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("test server does not support hijacking")
			return
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close() // the poller sees a connection error
		}
	})
	bad := httptest.NewServer(badMux)
	t.Cleanup(bad.Close)
	badClient := &Client{Base: bad.URL, HTTP: bad.Client()}

	var logMu sync.Mutex
	var logs []string
	f := &Fleet{
		Clients:     []*Client{badClient, goodClient},
		MaxInflight: 3,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	}
	specs := seedSpecs("e", 8)
	views, err := f.Run(context.Background(), specs)
	if err != nil {
		t.Fatalf("fleet did not survive a dead daemon: %v", err)
	}
	for i, v := range views {
		if v.State != StateDone {
			t.Fatalf("view %d state %s after failover", i, v.State)
		}
	}
	// Every spec ultimately ran on the good daemon.
	if st := good.Snapshot(); st.Jobs[StateDone] < len(specs) {
		t.Fatalf("good daemon completed %d jobs, want >= %d", st.Jobs[StateDone], len(specs))
	}
	logMu.Lock()
	defer logMu.Unlock()
	joined := strings.Join(logs, "\n")
	if !strings.Contains(joined, "failed over") {
		t.Fatalf("failover was not reported through Logf:\n%s", joined)
	}
}

// TestFleetDedupsIdenticalSpecs: identical spec keys are submitted once
// and every duplicate slot shares the single job's view.
func TestFleetDedupsIdenticalSpecs(t *testing.T) {
	fake := newFake("e")
	s, c := newFleetDaemon(t, Config{Workers: 2}, fake)
	f := &Fleet{Clients: []*Client{c}}

	same := hmcsim.Spec{Exp: "e", Options: hmcsim.Options{Seed: 7}}
	specs := []hmcsim.Spec{same, {Exp: "e", Options: hmcsim.Options{Seed: 1}}, same, same}
	views, err := f.Run(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if views[0].ID != views[2].ID || views[0].ID != views[3].ID {
		t.Fatalf("duplicate specs got distinct jobs: %s / %s / %s", views[0].ID, views[2].ID, views[3].ID)
	}
	if views[1].ID == views[0].ID {
		t.Fatal("distinct specs shared a job")
	}
	if n := fake.runs.Load(); n != 2 {
		t.Fatalf("runner ran %d times, want 2 (deduped)", n)
	}
	if n := s.Snapshot().Jobs[StateDone]; n != 2 {
		t.Fatalf("daemon holds %d done jobs, want 2 (duplicates submitted)", n)
	}
	if !bytes.Equal(views[0].Result, views[2].Result) {
		t.Fatal("deduped views differ")
	}
}

// TestFleetFailsOverClosedDaemon: a daemon whose Server was Closed
// keeps answering HTTP with 503 "shutting down" — that must count as a
// dead daemon (shard fails over / run errors), not as a transient full
// queue to retry forever.
func TestFleetFailsOverClosedDaemon(t *testing.T) {
	closed := New(Config{Workers: 1}, []hmcsim.Runner{newFake("e")})
	closedTS := httptest.NewServer(closed.Handler())
	t.Cleanup(closedTS.Close)
	closed.Close() // still listening, no longer serving

	_, goodClient := newFleetDaemon(t, Config{Workers: 2}, newFake("e"))
	f := &Fleet{
		Clients: []*Client{{Base: closedTS.URL, HTTP: closedTS.Client()}, goodClient},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	views, err := f.Run(ctx, seedSpecs("e", 4))
	if err != nil {
		t.Fatalf("fleet did not fail over the shutting-down daemon: %v", err)
	}
	if ctx.Err() != nil {
		t.Fatal("fleet spun on the closed daemon until the safety timeout")
	}
	for i, v := range views {
		if v.State != StateDone {
			t.Fatalf("view %d state %s", i, v.State)
		}
	}

	// With no surviving peer the run must error out, not hang.
	solo := &Fleet{
		Clients: []*Client{{Base: closedTS.URL, HTTP: closedTS.Client()}},
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if _, err := solo.Run(ctx2, seedSpecs("e", 2)); err == nil || ctx2.Err() != nil {
		t.Fatalf("solo run against a closed daemon: err = %v (timeout: %v)", err, ctx2.Err())
	}
}

// TestFleetFailsOverDaemonClosedMidRun: a daemon whose Server closes
// while it runs and queues the fleet's jobs cancels them with the
// shutting_down code; the fleet fails them over to its peer instead of
// failing the run as if a job had been canceled on its own.
func TestFleetFailsOverDaemonClosedMidRun(t *testing.T) {
	slow := newBlockingFake("e") // never released: only the shutdown ends its job
	closing, closingClient := newFleetDaemon(t, Config{Workers: 1}, slow)
	fast := newBlockingFake("e")
	_, fastClient := newFleetDaemon(t, Config{Workers: 1}, fast)
	go func() {
		// The fast daemon holds at most MaxInflight specs until the slow
		// one runs a job, so the slow one gets the rest.
		<-slow.started
		close(fast.release)
		// Any moment after the start must fail over; 20 ms in, the
		// fleet is already watching both of the slow daemon's jobs.
		time.Sleep(20 * time.Millisecond)
		closing.Close()
	}()

	var logMu sync.Mutex
	var logs []string
	f := &Fleet{
		Clients:     []*Client{closingClient, fastClient},
		MaxInflight: 2,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	views, err := f.Run(ctx, seedSpecs("e", 4))
	if err != nil {
		t.Fatalf("fleet did not fail over the daemon that closed mid-run: %v", err)
	}
	for i, v := range views {
		if v.State != StateDone {
			t.Fatalf("view %d state %s", i, v.State)
		}
	}
	j, ok := closing.Job("j000001")
	if !ok {
		t.Fatal("the closed daemon lost its first job")
	}
	if v := j.View(); v.State != StateCanceled || v.ErrorCode != codeShuttingDown {
		t.Fatalf("job running at shutdown ended %s with code %q, want canceled with %q", v.State, v.ErrorCode, codeShuttingDown)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if joined := strings.Join(logs, "\n"); !strings.Contains(joined, "failed over") {
		t.Fatalf("failover was not reported through Logf:\n%s", joined)
	}
}

// TestFleetRetriesExhausted: when every daemon keeps failing, the run
// fails with a bounded-retries error instead of spinning forever.
func TestFleetRetriesExhausted(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
			}
		}
	}))
	t.Cleanup(dead.Close)
	f := &Fleet{
		Clients: []*Client{{Base: dead.URL, HTTP: dead.Client()}},
		Retries: 2,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := f.Run(ctx, seedSpecs("e", 2))
	if err == nil {
		t.Fatal("fleet run over a dead daemon succeeded")
	}
	if ctx.Err() != nil {
		t.Fatalf("fleet hung until the safety timeout: %v", err)
	}
}

// TestFleetFailsOverDaemonWithoutBatchEndpoint: a daemon that 404s
// /v1/batch (an older build mid-rolling-upgrade, a proxy rejecting the
// path), or an intermediary answering 500, 502 or 504 for a crashed
// daemon, is that daemon's problem, not the specs' — its shard moves
// to a peer instead of aborting the run.
func TestFleetFailsOverDaemonWithoutBatchEndpoint(t *testing.T) {
	for _, status := range []int{http.StatusNotFound, http.StatusInternalServerError, http.StatusBadGateway, http.StatusGatewayTimeout} {
		t.Run(strconv.Itoa(status), func(t *testing.T) {
			old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/experiments" {
					json.NewEncoder(w).Encode([]ExperimentView{{Name: "e", Title: "fake"}}) //nolint:errcheck
					return
				}
				http.Error(w, http.StatusText(status), status) // no /v1/batch route
			}))
			t.Cleanup(old.Close)

			_, goodClient := newFleetDaemon(t, Config{Workers: 2}, newFake("e"))
			f := &Fleet{
				Clients: []*Client{{Base: old.URL, HTTP: old.Client()}, goodClient},
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			views, err := f.Run(ctx, seedSpecs("e", 4))
			if err != nil {
				t.Fatalf("%d on /v1/batch aborted the run instead of failing over: %v", status, err)
			}
			for i, v := range views {
				if v.State != StateDone {
					t.Fatalf("view %d state %s", i, v.State)
				}
			}
		})
	}
}

// TestFleetProgressesThroughTinyQueue: a daemon whose queue is smaller
// than the fleet's gathered batch keeps 503-ing the whole batch under
// all-or-nothing admission; the fleet must shrink its batches and drain
// the work one spec at a time instead of resubmitting the same
// oversized batch forever.
func TestFleetProgressesThroughTinyQueue(t *testing.T) {
	_, c := newFleetDaemon(t, Config{Workers: 1, QueueDepth: 1},
		&fakeRunner{name: "e", started: make(chan struct{}), delay: 5 * time.Millisecond})
	f := &Fleet{Clients: []*Client{c}, MaxInflight: 4}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	views, err := f.Run(ctx, seedSpecs("e", 4))
	if err != nil {
		t.Fatalf("fleet never drained a tiny queue: %v", err)
	}
	if ctx.Err() != nil {
		t.Fatal("fleet livelocked against the tiny queue until the safety timeout")
	}
	for i, v := range views {
		if v.State != StateDone {
			t.Fatalf("view %d state %s", i, v.State)
		}
	}
}

// bigTextRunner pads its result text so a handful of cache-hit views
// overflow the single-request response bound.
type bigTextRunner struct{ name string }

func (b bigTextRunner) Name() string     { return b.name }
func (b bigTextRunner) Describe() string { return "big " + b.name }
func (b bigTextRunner) Run(ctx context.Context, o hmcsim.Options) (hmcsim.Result, error) {
	return hmcsim.Result{
		Name:   b.name,
		Series: []hmcsim.Series{{Name: "s", Points: []hmcsim.Point{{X: 1, Y: float64(o.Seed)}}}},
		Text:   strings.Repeat("x", 400<<10),
	}, nil
}

// TestFleetBatchResponseScalesWithSpecs: a batch of cache hits inlines
// one full result per spec, so the client's response bound must scale
// with the batch instead of misreading a legitimate payload as a
// misbehaving endpoint (which would cascade into spurious failover).
func TestFleetBatchResponseScalesWithSpecs(t *testing.T) {
	_, c := newFleetDaemon(t, Config{Workers: 2}, bigTextRunner{name: "big"})
	f := &Fleet{Clients: []*Client{c}, MaxInflight: 4}
	ctx := context.Background()

	// First run populates the cache with four ~400 KiB results.
	specs := seedSpecs("big", 4)
	if _, err := f.Run(ctx, specs); err != nil {
		t.Fatal(err)
	}
	// Second run: the whole batch comes back inline, > 1 MiB in one
	// response.
	views, err := f.Run(ctx, specs)
	if err != nil {
		t.Fatalf("cache-hit batch rejected by the response bound: %v", err)
	}
	for i, v := range views {
		if !v.Cached || v.State != StateDone {
			t.Fatalf("view %d not served inline from cache: %+v", i, v)
		}
	}
}

// TestSettleRequeuesQueueFullFailure: a job that FAILED with the
// server's queue-full message (the adopt fallback losing its
// re-enqueue) is daemon-local saturation, so settle must requeue it —
// only a genuine experiment failure aborts the run.
func TestSettleRequeuesQueueFullFailure(t *testing.T) {
	newRun := func() *fleetRun {
		r := &fleetRun{
			f:       &Fleet{},
			specs:   []hmcsim.Spec{{Exp: "e"}},
			results: make([]JobView, 1),
			pending: make(chan fleetItem, 1),
			done:    make(chan struct{}),
			fatal:   make(chan struct{}),
		}
		r.remaining.Store(1)
		return r
	}
	c := &Client{Base: "http://test"}
	noDie := func(err error) { t.Errorf("settle killed the daemon: %v", err) }

	r := newRun()
	r.settle(context.Background(), c, watchResult{
		it:   fleetItem{idx: 0},
		view: JobView{ID: "j1", State: StateFailed, Error: errQueueFull.Error(), ErrorCode: codeQueueFull},
	}, noDie)
	select {
	case it := <-r.pending:
		if it.attempts != 1 {
			t.Fatalf("requeued item charged %d attempts, want 1", it.attempts)
		}
	default:
		t.Fatal("queue-full job failure was not requeued")
	}
	select {
	case <-r.fatal:
		t.Fatal("queue-full job failure aborted the run")
	default:
	}

	// A genuine failure stays fatal.
	r2 := newRun()
	r2.settle(context.Background(), c, watchResult{
		it:   fleetItem{idx: 0},
		view: JobView{ID: "j1", State: StateFailed, Error: "boom"},
	}, noDie)
	select {
	case <-r2.fatal:
	default:
		t.Fatal("real experiment failure did not abort the run")
	}
}

// TestFleetCancellationCancelsRemoteJobs: cancelling the caller's
// context mid-run cancels the in-flight remote jobs before Run returns,
// so no daemon worker is left simulating for a vanished client.
func TestFleetCancellationCancelsRemoteJobs(t *testing.T) {
	blocker := newBlockingFake("slow")
	s := New(Config{Workers: 1}, []hmcsim.Runner{blocker})
	// Observe the fleet's first status poll, proving the poller holds
	// the job ID before the caller's context dies.
	polled := make(chan struct{})
	var pollOnce sync.Once
	handler := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			pollOnce.Do(func() { close(polled) })
		}
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { ts.Close(); s.Close() })
	c := &Client{Base: ts.URL, HTTP: ts.Client()}

	var logMu sync.Mutex
	var logs []string
	f := &Fleet{
		Clients: []*Client{c},
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-blocker.started
		<-polled
		cancel()
	}()
	_, err := f.Run(ctx, []hmcsim.Spec{{Exp: "slow"}})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	j, ok := s.Job("j000001")
	if !ok {
		t.Fatal("daemon lost the job record")
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned remote job never terminated")
	}
	if st := j.View().State; st != StateCanceled {
		t.Fatalf("abandoned job state %s, want canceled", st)
	}
	logMu.Lock()
	defer logMu.Unlock()
	if joined := strings.Join(logs, "\n"); !strings.Contains(joined, "canceled job") {
		t.Fatalf("cancellation not reported through Logf:\n%s", joined)
	}
}
