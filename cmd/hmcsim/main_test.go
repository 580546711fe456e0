package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"hmcsim"
	"hmcsim/internal/exp"
	"hmcsim/internal/service"
)

// newDaemon serves the real experiment registry the way cmd/hmcsimd
// does, over httptest.
func newDaemon(t *testing.T) string {
	t.Helper()
	svc := service.New(service.Config{Workers: 2}, exp.Runners())
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return ts.URL
}

func TestListLocalAndRemote(t *testing.T) {
	url := newDaemon(t)
	var local, remote bytes.Buffer
	if code := run(context.Background(), []string{"-list"}, &local, &local); code != 0 {
		t.Fatalf("local -list exited %d: %s", code, local.String())
	}
	if code := run(context.Background(), []string{"-server", url, "-list"}, &remote, &remote); code != 0 {
		t.Fatalf("remote -list exited %d: %s", code, remote.String())
	}
	// The daemon serves the same registry, so the listings agree.
	if local.String() != remote.String() {
		t.Fatalf("listings differ:\nlocal:\n%s\nremote:\n%s", local.String(), remote.String())
	}
	if !strings.Contains(local.String(), "fig6") || !strings.Contains(local.String(), "Figure 6") {
		t.Fatalf("listing missing fig6 row:\n%s", local.String())
	}
}

func TestRemoteRunMatchesLocal(t *testing.T) {
	url := newDaemon(t)
	args := []string{"-exp", "table1", "-format", "json"}

	var localOut, remoteOut, stderr bytes.Buffer
	if code := run(context.Background(), args, &localOut, &stderr); code != 0 {
		t.Fatalf("local run exited %d: %s", code, stderr.String())
	}
	remoteArgs := append([]string{"-server", url}, args...)
	if code := run(context.Background(), remoteArgs, &remoteOut, &stderr); code != 0 {
		t.Fatalf("remote run exited %d: %s", code, stderr.String())
	}

	var localRes, remoteRes []hmcsim.Result
	if err := json.Unmarshal(localOut.Bytes(), &localRes); err != nil {
		t.Fatalf("local output: %v", err)
	}
	if err := json.Unmarshal(remoteOut.Bytes(), &remoteRes); err != nil {
		t.Fatalf("remote output: %v", err)
	}
	if len(localRes) != 1 || len(remoteRes) != 1 {
		t.Fatalf("result counts %d / %d, want 1 / 1", len(localRes), len(remoteRes))
	}
	if localRes[0].Name != remoteRes[0].Name || len(localRes[0].Series) != len(remoteRes[0].Series) {
		t.Fatalf("remote result diverges from local:\nlocal: %+v\nremote: %+v", localRes[0], remoteRes[0])
	}

	// A second remote run of the identical spec is a cache hit and
	// byte-identical output.
	var again bytes.Buffer
	if code := run(context.Background(), remoteArgs, &again, &stderr); code != 0 {
		t.Fatalf("second remote run exited %d: %s", code, stderr.String())
	}
	if !bytes.Equal(again.Bytes(), remoteOut.Bytes()) {
		t.Fatal("cached remote rerun not byte-identical")
	}
}

// TestRemoteTextOutput: a -server run in text mode prints the rendered
// results on stdout and, per job on stderr, how it finished and its
// stages on the daemon.
func TestRemoteTextOutput(t *testing.T) {
	url := newDaemon(t)
	var out, stderr bytes.Buffer
	code := run(context.Background(), []string{"-server", url, "-exp", "eq1,table1"}, &out, &stderr)
	if code != 0 {
		t.Fatalf("exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(out.String(), "BWpeak") {
		t.Fatalf("remote text output missing the rendered table:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "simulated in") {
		t.Fatalf("remote text output missing timing line:\n%s", out.String())
	}
	if strings.Contains(out.String(), "received") {
		t.Fatalf("stages leaked into stdout:\n%s", out.String())
	}
	for _, name := range []string{"eq1", "table1"} {
		line := regexp.MustCompile(`(?m)^hmcsim: ` + name + ` simulated in \S+: ` +
			`received \d+\.\dms, queued \d+\.\dms, cache-check \d+\.\dms, running \d+\.\dms, marshal \d+\.\dms, done \d+\.\dms$`)
		if !line.MatchString(stderr.String()) {
			t.Fatalf("stderr has no stage line for %s:\n%s", name, stderr.String())
		}
	}

	stderr.Reset()
	if code := run(context.Background(), []string{"-server", url, "-exp", "eq1", "-spans"}, &out, &stderr); code != 2 {
		t.Fatalf("-spans exited %d, want 2 as an unknown flag: %s", code, stderr.String())
	}
}

// TestTrafficLocalRemoteByteIdentical is the traffic acceptance path:
// `hmcsim -exp traffic-zipf -format json` and the identical spec
// submitted through hmcsimd must emit byte-identical JSON, and the
// repeated daemon submission must be served from the cache.
func TestTrafficLocalRemoteByteIdentical(t *testing.T) {
	svc := service.New(service.Config{Workers: 2}, exp.Runners())
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })

	args := []string{"-exp", "traffic-zipf", "-quick", "-format", "json"}
	var localOut, remoteOut, again, stderr bytes.Buffer
	if code := run(context.Background(), args, &localOut, &stderr); code != 0 {
		t.Fatalf("local run exited %d: %s", code, stderr.String())
	}
	remoteArgs := append([]string{"-server", ts.URL}, args...)
	if code := run(context.Background(), remoteArgs, &remoteOut, &stderr); code != 0 {
		t.Fatalf("remote run exited %d: %s", code, stderr.String())
	}
	if !bytes.Equal(localOut.Bytes(), remoteOut.Bytes()) {
		t.Fatal("daemon-served traffic-zipf JSON differs from the local run")
	}
	hitsBefore := svc.Snapshot().Cache.Hits
	if code := run(context.Background(), remoteArgs, &again, &stderr); code != 0 {
		t.Fatalf("repeat remote run exited %d: %s", code, stderr.String())
	}
	if !bytes.Equal(again.Bytes(), remoteOut.Bytes()) {
		t.Fatal("cached traffic rerun not byte-identical")
	}
	if hits := svc.Snapshot().Cache.Hits; hits <= hitsBefore {
		t.Fatalf("repeat submission was not a cache hit (hits %d -> %d)", hitsBefore, hits)
	}
}

// TestTrafficFlag: -traffic accepts a pattern name or JSON and rejects
// unknown patterns before any simulation (or submission) happens.
func TestTrafficFlag(t *testing.T) {
	var out, stderr bytes.Buffer
	args := []string{"-exp", "traffic", "-quick", "-traffic", `{"pattern":"chase","chaseNodes":256}`}
	if code := run(context.Background(), args, &out, &stderr); code != 0 {
		t.Fatalf("JSON -traffic run exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(out.String(), "chase") {
		t.Fatalf("output does not name the chase pattern:\n%s", out.String())
	}

	out.Reset()
	stderr.Reset()
	if code := run(context.Background(), []string{"-exp", "traffic", "-traffic", "zipfian"}, &out, &stderr); code != 2 {
		t.Fatalf("unknown pattern exited %d, want 2", code)
	}
	for _, name := range hmcsim.TrafficPatterns() {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("error output %q does not list pattern %q", stderr.String(), name)
		}
	}

	// Trailing JSON after the spec object must not be silently dropped.
	stderr.Reset()
	badJSON := []string{"-exp", "traffic", "-traffic", `{"pattern":"zipf"}{"zipfTheta":1.8}`}
	if code := run(context.Background(), badJSON, &out, &stderr); code != 2 {
		t.Fatalf("trailing JSON exited %d, want 2: %s", code, stderr.String())
	}

	// The flag only parameterizes the generic "traffic" experiment; any
	// other selection would silently ignore it (and fork daemon cache
	// keys), so it is rejected.
	stderr.Reset()
	if code := run(context.Background(), []string{"-exp", "fig6", "-traffic", "zipf"}, &out, &stderr); code != 2 {
		t.Fatalf("-traffic with fig6 exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-exp traffic") {
		t.Fatalf("error %q does not point at -exp traffic", stderr.String())
	}
}

func TestUnknownExperimentFailsFast(t *testing.T) {
	var out, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-exp", "fig99"}, &out, &stderr); code != 2 {
		t.Fatalf("exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "fig99") {
		t.Fatalf("stderr %q does not name the typo", stderr.String())
	}
}

func TestRemoteFailsFastOnUnknownName(t *testing.T) {
	svc := service.New(service.Config{Workers: 1}, exp.Runners())
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })

	var out, stderr bytes.Buffer
	code := run(context.Background(),
		[]string{"-server", ts.URL, "-exp", "table1,fig99"}, &out, &stderr)
	if code != 2 {
		t.Fatalf("exited %d, want 2: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "fig99") {
		t.Fatalf("stderr %q does not name the typo", stderr.String())
	}
	// Fail-fast means nothing was submitted — not even the valid name.
	if n := len(svc.Snapshot().Jobs); n != 0 {
		t.Fatalf("daemon received %d jobs despite the typo", n)
	}
}

// TestFleetRunAllMatchesLocal is the batching acceptance path: against
// a 4-worker daemon, `hmcsim -exp all -server URL` must complete the
// whole registry with at least two jobs simulating concurrently (the
// batch submission fills the worker pool instead of trickling one job
// per round-trip), and the JSON output must be byte-identical to the
// local run. The local run is not repeated here: its bytes are the AB
// goldens in internal/exp/testdata/ab, which internal/exp's TestABGuard
// holds it to, framed as the CLI frames a result list.
func TestFleetRunAllMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick registry through a fleet")
	}
	svc := service.New(service.Config{Workers: 4}, exp.Runners())
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })

	var goldens []json.RawMessage
	for _, name := range exp.Names() {
		blob, err := os.ReadFile(filepath.Join("..", "..", "internal", "exp", "testdata", "ab", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		goldens = append(goldens, blob)
	}
	var localOut, remoteOut, stderr bytes.Buffer
	if code := emitJSON(&localOut, &stderr, goldens); code != 0 {
		t.Fatalf("framing the goldens failed: %s", stderr.String())
	}
	args := []string{"-server", ts.URL, "-exp", "all", "-quick", "-format", "json"}
	if code := run(context.Background(), args, &remoteOut, &stderr); code != 0 {
		t.Fatalf("fleet run exited %d: %s", code, stderr.String())
	}
	if !bytes.Equal(localOut.Bytes(), remoteOut.Bytes()) {
		t.Fatal("fleet-run -exp all JSON differs from the local run's goldens")
	}

	st := svc.Snapshot()
	if st.InflightPeak < 2 {
		t.Fatalf("inflight peak %d, want >= 2: the batch path left the worker pool idle", st.InflightPeak)
	}
	if st.Batches == 0 {
		t.Fatal("the CLI never used the batch endpoint")
	}
	if done, want := st.Jobs[service.StateDone], len(exp.Names()); done < want {
		t.Fatalf("daemon completed %d jobs, want >= %d", done, want)
	}
}

// TestRemoteRunSpansDaemons: a comma-separated -server list shards the
// experiment list across every daemon while output stays identical to a
// single-daemon run.
func TestRemoteRunSpansDaemons(t *testing.T) {
	var services []*service.Server
	var urls []string
	for i := 0; i < 2; i++ {
		svc := service.New(service.Config{Workers: 2}, exp.Runners())
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(func() { ts.Close(); svc.Close() })
		services = append(services, svc)
		urls = append(urls, ts.URL)
	}

	args := []string{
		"-server", strings.Join(urls, ","),
		"-exp", "table1,eq1,fig6,fig14", "-quick", "-format", "json",
	}
	var out, stderr bytes.Buffer
	if code := run(context.Background(), args, &out, &stderr); code != 0 {
		t.Fatalf("multi-daemon run exited %d: %s", code, stderr.String())
	}
	var results []hmcsim.Result
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("output: %v", err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4", len(results))
	}
	for i, want := range []string{"table1", "eq1", "fig6", "fig14"} {
		if results[i].Name != want {
			t.Fatalf("result %d is %q, want %q (submission order lost)", i, results[i].Name, want)
		}
	}
	// Every job ran somewhere on the fleet, exactly once each. (That
	// every daemon receives a share of a large-enough backlog is pinned
	// deterministically in internal/service's TestFleetShardsAcrossDaemons;
	// with four fast specs the split here is scheduler-dependent.)
	total := 0
	for i, svc := range services {
		n := svc.Snapshot().Jobs[service.StateDone]
		total += n
		t.Logf("daemon %d completed %d jobs", i, n)
	}
	if total != 4 {
		t.Fatalf("fleet daemons completed %d jobs in total, want 4", total)
	}
}

// blockingRunner parks until its context is canceled, standing in for a
// long simulation.
type blockingRunner struct{ started chan struct{} }

func (b *blockingRunner) Name() string     { return "block" }
func (b *blockingRunner) Describe() string { return "blocks until canceled" }
func (b *blockingRunner) Run(ctx context.Context, o hmcsim.Options) (hmcsim.Result, error) {
	close(b.started)
	<-ctx.Done()
	return hmcsim.Result{}, ctx.Err()
}

// TestRemoteInterruptCancelsJob: Ctrl-C mid-poll must not orphan the
// simulation on the daemon — the CLI cancels its job on the way out.
func TestRemoteInterruptCancelsJob(t *testing.T) {
	br := &blockingRunner{started: make(chan struct{})}
	svc := service.New(service.Config{Workers: 1}, []hmcsim.Runner{br})
	// Observe the CLI's first status poll, proving it has read the
	// submit response (and so holds the job ID) before the "Ctrl-C".
	polled := make(chan struct{})
	var pollOnce sync.Once
	handler := svc.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			pollOnce.Do(func() { close(polled) })
		}
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { ts.Close(); svc.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-br.started // the job is running on the daemon
		<-polled     // the CLI is in its polling loop
		cancel()     // "Ctrl-C"
	}()
	var out, stderr bytes.Buffer
	code := run(ctx, []string{"-server", ts.URL, "-exp", "block"}, &out, &stderr)
	if code != 1 {
		t.Fatalf("exited %d, want 1: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "canceled job") {
		t.Fatalf("stderr %q missing cancellation notice", stderr.String())
	}
	// The daemon-side job must reach canceled, freeing its worker.
	j, ok := svc.Job("j000001")
	if !ok {
		t.Fatal("daemon lost the job record")
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("daemon job never terminated")
	}
	if st := j.View().State; st != service.StateCanceled {
		t.Fatalf("daemon job state %s, want canceled", st)
	}
}
