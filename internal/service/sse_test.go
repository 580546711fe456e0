package service

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"hmcsim"
)

// TestProgressKeepAlivePing: an idle progress stream emits SSE comment
// pings on the keep-alive interval, and a client that disconnects
// mid-stream leaves no handler goroutine behind.
func TestProgressKeepAlivePing(t *testing.T) {
	old := sseKeepAlive
	sseKeepAlive = 20 * time.Millisecond
	t.Cleanup(func() { sseKeepAlive = old })

	blocker := newBlockingFake("e")
	_, c := newTestServer(t, Config{Workers: 1}, blocker)
	ctx := context.Background()
	v, err := c.Submit(ctx, hmcsim.Spec{Exp: "e"})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.started
	base := runtime.NumGoroutine()

	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	req, err := http.NewRequestWithContext(sctx, http.MethodGet,
		strings.TrimSuffix(c.Base, "/")+"/v1/jobs/"+v.ID+"/progress", nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	resp, err := c.streamClient().Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	// The job is blocked, so nothing but pings should flow; two of them
	// proves the ticker is periodic, not a one-shot.
	br := bufio.NewReader(resp.Body)
	pings := 0
	for pings < 2 {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended after %d pings: %v", pings, err)
		}
		if strings.HasPrefix(line, ": ping") {
			pings++
		}
	}

	// Disconnect: the handler must unwind without leaking.
	cancel()
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+1 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines settled at %d, want <= %d after stream disconnect",
				runtime.NumGoroutine(), base+1)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(blocker.release)
	waitJob(t, c, v.ID)
}

// TestWatchJobSkipsKeepAlives: WatchJob must treat comment lines as
// noise — a stream that pings before the terminal event still resolves
// to the job's final view — and the pings keep a stream with no event
// for longer than its idle bound alive.
func TestWatchJobSkipsKeepAlives(t *testing.T) {
	old := sseKeepAlive
	sseKeepAlive = 50 * time.Millisecond
	t.Cleanup(func() { sseKeepAlive = old })

	blocker := newBlockingFake("e")
	_, c := newTestServer(t, Config{Workers: 1}, blocker)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := c.Submit(ctx, hmcsim.Spec{Exp: "e"})
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.started

	// Hold the job open long enough for several pings, and twice the
	// idle bound, to precede the terminal event.
	go func() {
		time.Sleep(200 * time.Millisecond)
		close(blocker.release)
	}()
	view, err := c.WatchJob(ctx, v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if view.State != StateDone {
		t.Fatalf("watched job ended %s, want done", view.State)
	}
}

// TestFleetFailsOverStalledProgressStream: a daemon that admits work,
// then opens a progress stream and sends nothing more (not even the
// keep-alive pings) must not hold a watcher or a fleet run forever: the
// stream fails after two keep-alive intervals, and the fleet finishes
// the run on its healthy peer.
func TestFleetFailsOverStalledProgressStream(t *testing.T) {
	old := sseKeepAlive
	sseKeepAlive = 100 * time.Millisecond
	t.Cleanup(func() { sseKeepAlive = old })

	s := New(Config{Workers: 1}, []hmcsim.Runner{newFake("e")})
	handler := s.Handler()
	opened := make(chan struct{}, 16) // one per stream; more than the test opens
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasSuffix(r.URL.Path, "/progress") {
			handler.ServeHTTP(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		opened <- struct{}{}
		<-r.Context().Done()
	}))
	t.Cleanup(func() { ts.Close(); s.Close() })
	stalled := &Client{Base: ts.URL, HTTP: ts.Client()}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := stalled.Submit(ctx, hmcsim.Spec{Exp: "e", Options: hmcsim.Options{Seed: 99}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stalled.WatchJob(ctx, v.ID, nil); err == nil || ctx.Err() != nil {
		t.Fatalf("watch of a stalled stream: err = %v (deadline: %v), want a stall error", err, ctx.Err())
	}

	_, good := newTestServer(t, Config{Workers: 2}, newFake("e"))
	f := &Fleet{
		Clients:     []*Client{stalled, good},
		MaxInflight: 1,
		OnProgress:  func(hmcsim.Spec, JobProgress) {},
	}
	<-opened // the direct watch above
	views, err := f.Run(ctx, seedSpecs("e", 4))
	if err != nil || ctx.Err() != nil {
		t.Fatalf("fleet run over a stalled stream: err = %v (deadline: %v)", err, ctx.Err())
	}
	for i, v := range views {
		if v.State != StateDone {
			t.Fatalf("view %d state %s", i, v.State)
		}
	}
	select {
	case <-opened:
	default:
		t.Fatal("the fleet never watched a job on the stalled daemon")
	}
}
