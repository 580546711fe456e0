package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hmcsim"
	"hmcsim/internal/exp"
)

// faultKind is one way the soak's transport breaks a request.
type faultKind int

const (
	faultDropBefore faultKind = iota // the connection dies before the daemon sees the request
	faultDropAfter                   // the daemon answered; the response is lost
	faultDelay                       // the request reaches the daemon late
	faultTruncate                    // the response body ends early, cleanly
	faultCorrupt                     // a control byte breaks the JSON or SSE framing
	fault500                         // an intermediary answers instead of the daemon
	fault502
	fault503
	faultStall // progress streams only: headers, then nothing
	numFaults
)

var faultNames = [numFaults]string{
	"drop-before", "drop-after", "delay", "truncate", "corrupt", "500", "502", "503", "stall",
}

// faults decides, for every request the soak's clients make, whether
// and how to break it. One seeded source serves every daemon. The kind
// rotates, so every kind fires once faults are frequent enough:
// progress streams rotate over all kinds, starting with the stall that
// only they can suffer, and other requests over the rest.
type faults struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rate  float64
	next  [2]int // rotation positions: other requests, progress streams
	fired [numFaults]int
}

// pick returns the fault for one request, if any, plus a random size
// for it: a delay in milliseconds or a byte offset into the body.
func (f *faults) pick(stream bool) (kind faultKind, ok bool, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rng.Float64() >= f.rate {
		return 0, false, 0
	}
	if stream {
		kind = faultKind((int(faultStall) + f.next[1]) % int(numFaults))
		f.next[1]++
	} else {
		kind = faultKind(f.next[0] % int(faultStall))
		f.next[0]++
	}
	f.fired[kind]++
	// A progress event is ~170 bytes and a job view ~1.5 KB, so these
	// offsets land inside most bodies.
	size := 1500
	if stream {
		size = 300
	}
	if kind == faultDelay {
		size = 30
	}
	return kind, true, f.rng.Intn(size)
}

var errInjected = errors.New("injected fault: connection reset")

// faultyTransport is a RoundTripper that breaks requests as faults
// decides and passes the rest to base.
type faultyTransport struct {
	base http.RoundTripper
	f    *faults
}

func (t *faultyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind, ok, n := t.f.pick(strings.HasSuffix(req.URL.Path, "/progress"))
	if !ok {
		return t.base.RoundTrip(req)
	}
	switch kind {
	case faultDropBefore, fault500, fault502, fault503:
		if req.Body != nil {
			req.Body.Close()
		}
		if kind == faultDropBefore {
			return nil, errInjected
		}
		code := map[faultKind]int{fault500: 500, fault502: 502, fault503: 503}[kind]
		return &http.Response{
			Status:     fmt.Sprintf("%d %s", code, http.StatusText(code)),
			StatusCode: code,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:  http.Header{"Content-Type": {"text/plain"}},
			Body:    io.NopCloser(strings.NewReader("injected\n")),
			Request: req,
		}, nil
	case faultDelay:
		select {
		case <-time.After(time.Duration(n) * time.Millisecond):
		case <-req.Context().Done():
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, req.Context().Err()
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	switch kind {
	case faultDropAfter:
		resp.Body.Close()
		return nil, errInjected
	case faultTruncate:
		resp.Body = &truncatedBody{rc: resp.Body, left: n}
	case faultCorrupt:
		resp.Body = &corruptBody{rc: resp.Body, at: n}
	case faultStall:
		resp.Body.Close()
		resp.Body = stalledBody{req.Context()}
	}
	return resp, nil
}

// truncatedBody ends its body with a clean EOF after left bytes.
type truncatedBody struct {
	rc   io.ReadCloser
	left int
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, io.EOF
	}
	if len(p) > b.left {
		p = p[:b.left]
	}
	n, err := b.rc.Read(p)
	b.left -= n
	return n, err
}

func (b *truncatedBody) Close() error { return b.rc.Close() }

// corruptBody inserts a 0x01 byte at offset at, which no JSON text and
// no SSE data line may carry unescaped.
type corruptBody struct {
	rc   io.ReadCloser
	at   int
	done bool
}

func (b *corruptBody) Read(p []byte) (int, error) {
	switch {
	case b.done:
	case b.at == 0:
		b.done = true
		p[0] = 1
		return 1, nil
	case len(p) > b.at:
		p = p[:b.at]
	}
	n, err := b.rc.Read(p)
	if !b.done {
		b.at -= n
	}
	return n, err
}

func (b *corruptBody) Close() error { return b.rc.Close() }

// stalledBody delivers nothing until its request is canceled.
type stalledBody struct{ ctx context.Context }

func (b stalledBody) Read([]byte) (int, error) {
	<-b.ctx.Done()
	return 0, b.ctx.Err()
}

func (stalledBody) Close() error { return nil }

// boundedFleetErr matches the two errors a fleet run may end with when
// its daemons keep failing: a spec out of retries, or no daemon left.
var boundedFleetErr = regexp.MustCompile(`^(experiment "[^"]+" failed on \S+ after \d+ attempts: |all daemons unreachable )`)

// soakRounds numbers the soak's invocations, so that go test -count=N
// soaks N fixed seeds in turn.
var soakRounds atomic.Int64

// crashRunner wraps a runner of the daemon the soak crashes. Once
// armed, the next job it runs blocks, reports on running, and returns
// only when the daemon's shutdown cancels it.
type crashRunner struct {
	hmcsim.Runner
	armed   *atomic.Bool
	running chan<- struct{}
}

func (r crashRunner) Run(ctx context.Context, o hmcsim.Options) (hmcsim.Result, error) {
	if !r.armed.CompareAndSwap(true, false) {
		return r.Runner.Run(ctx, o)
	}
	r.running <- struct{}{}
	<-ctx.Done()
	return hmcsim.Result{}, ctx.Err()
}

// TestFleetSoak drives Fleet.Run over three in-process daemons whose
// clients reach them through a fault-injecting transport, and crashes
// one daemon (Server.Close) while it runs a fleet job; a fresh daemon
// takes its place from the next run on. Every run must return the
// bytes of a local run or one of the fleet's two bounded errors, well
// before its deadline; most runs must converge; and once the daemons
// drain, no job is left active, every job table is within MaxJobs, and
// no goroutine outlives the daemons.
func TestFleetSoak(t *testing.T) {
	old := sseKeepAlive
	sseKeepAlive = 50 * time.Millisecond // a stalled stream fails in 100 ms
	t.Cleanup(func() { sseKeepAlive = old })
	seed := soakRounds.Add(1)
	const (
		daemons = 3
		maxJobs = 16
		runs    = 24
		rate    = 0.12
		victim  = 0 // the daemon that crashes
		crashAt = 2 // the run from which its next job waits for the crash
	)

	base := runtime.NumGoroutine()
	f := &faults{rng: rand.New(rand.NewSource(seed)), rate: rate}
	var servers []*Server
	var fronts []*httptest.Server
	var clients []*Client
	// start runs one more daemon and returns its client.
	start := func(runners []hmcsim.Runner) *Client {
		s := New(Config{Workers: 2, MaxJobs: maxJobs, Retain: -1}, runners)
		ts := httptest.NewServer(s.Handler())
		servers = append(servers, s)
		fronts = append(fronts, ts)
		return &Client{Base: ts.URL, HTTP: &http.Client{
			Transport: &faultyTransport{base: ts.Client().Transport, f: f},
			Timeout:   5 * time.Second,
		}}
	}
	var armed atomic.Bool
	running := make(chan struct{}, 1)
	for i := 0; i < daemons; i++ {
		runners := exp.Runners()
		if i == victim {
			for k, r := range runners {
				runners[k] = crashRunner{Runner: r, armed: &armed, running: running}
			}
		}
		clients = append(clients, start(runners))
	}
	closed := false
	closeDaemons := func() {
		if !closed {
			closed = true
			for i := range servers {
				fronts[i].Close()
				servers[i].Close()
			}
		}
	}
	t.Cleanup(closeDaemons)

	// local renders what a local run of spec prints: its compact JSON and
	// its text.
	local := func(spec hmcsim.Spec) (json.RawMessage, string) {
		o := spec.Options
		o.Workers = 1
		res, err := exp.Run(context.Background(), spec.Exp, o)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return blob, res.String()
	}

	crashing := servers[victim]
	crashed := make(chan struct{})
	go func() {
		<-running
		crashing.Close()
		close(crashed)
	}()

	converged := 0
	restarted := false
	for run := 0; run < runs; run++ {
		if run == crashAt {
			armed.Store(true)
		}
		if !restarted {
			select {
			case <-crashed:
				// As a supervisor would, bring up a fresh daemon in the
				// crashed one's place for the runs that follow.
				clients[victim] = start(exp.Runners())
				restarted = true
			default:
			}
		}
		var specs []hmcsim.Spec
		for k := 0; k < 3; k++ {
			o := hmcsim.Options{Quick: true, Seed: uint64(seed*1000 + int64(run*10+k) + 1)}
			specs = append(specs, hmcsim.Spec{Exp: "eq1", Options: o}, hmcsim.Spec{Exp: "table1", Options: o})
		}
		specs = append(specs, specs[0]) // a duplicate the fleet dedups
		fleet := &Fleet{Clients: clients}
		if run%2 == 1 {
			fleet.OnProgress = func(hmcsim.Spec, JobProgress) {}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		views, err := fleet.Run(ctx, specs)
		deadline := ctx.Err()
		cancel()
		switch {
		case deadline != nil:
			t.Fatalf("run %d hung until its deadline: %v", run, err)
		case err == nil:
			converged++
		case !boundedFleetErr.MatchString(err.Error()):
			t.Errorf("run %d ended with an unbounded error: %v", run, err)
		}
		// Whatever a run returns as done, failed run or not, must be
		// exactly what a local run prints.
		for i, v := range views {
			if err == nil && v.State != StateDone {
				t.Errorf("run %d: view %d is %s in a converged run", run, i, v.State)
			}
			if v.State != StateDone {
				continue
			}
			wantJSON, wantText := local(specs[i])
			var got bytes.Buffer
			if err := json.Compact(&got, v.Result); err != nil {
				t.Errorf("run %d: view %d result: %v", run, i, err)
			} else if !bytes.Equal(got.Bytes(), wantJSON) || v.Text != wantText {
				t.Errorf("run %d: view %d (%s seed %d) differs from the local run",
					run, i, specs[i].Exp, specs[i].Options.Seed)
			}
		}
	}
	select {
	case <-crashed:
	case <-time.After(5 * time.Second):
		t.Fatalf("no job reached daemon %d after run %d, so it never crashed", victim, crashAt)
	}
	// The crash canceled the job it ran, and any other it held, with
	// the shutting_down code; no later job was admitted.
	held := 0
	crashing.mu.Lock()
	for _, j := range crashing.jobs {
		if j.View().ErrorCode == codeShuttingDown {
			held++
		}
	}
	crashing.mu.Unlock()
	if held == 0 {
		t.Errorf("daemon %d crashed holding no queued or running job", victim)
	}
	t.Logf("seed %d: %d of %d runs converged; daemon %d crashed holding %d job(s); faults fired: %v",
		seed, converged, runs, victim, held, f.fired)
	if converged < runs/2 {
		t.Errorf("%d of %d runs converged, want at least half", converged, runs)
	}
	for k, n := range f.fired {
		if n == 0 {
			t.Errorf("fault %s never fired", faultNames[k])
		}
	}

	for i, s := range servers {
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := s.Snapshot()
			total := 0
			for _, n := range st.Jobs {
				total += n
			}
			active := st.Jobs[StateQueued] + st.Jobs[StateRunning]
			if active == 0 {
				if total > maxJobs {
					t.Errorf("daemon %d holds %d job records, want at most MaxJobs %d", i, total, maxJobs)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("daemon %d still has %d active jobs after the runs", i, active)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	closeDaemons()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines settled at %d, want the baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
