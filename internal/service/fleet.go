package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hmcsim"
)

// Fleet schedules specs across one or more hmcsimd daemons. It dedups
// identical spec keys before submission, shards the unique specs over
// the daemons via a shared work queue, keeps a bounded number of jobs
// in flight per daemon (submitted in /v1/batch posts so a daemon's
// whole worker pool fills in one round-trip), waits for each job on
// its progress stream (Client.WatchJob), and fails a daemon's
// unfinished shard over to its peers on connection errors with bounded
// retries. Results reassemble in submission order, so a fleet run of
// `-exp all` is byte-identical to a local run, since daemon workers
// execute single-threaded deterministic engines.
type Fleet struct {
	// Clients are the daemons, one per base URL.
	Clients []*Client
	// MaxInflight bounds jobs in flight per daemon; <= 0 means 4.
	MaxInflight int
	// Retries bounds how many times one spec is resubmitted after a
	// daemon failure before the whole run fails; <= 0 means 2.
	Retries int
	// Logf, when set, receives human-readable progress lines: daemon
	// failover and orphan-cancellation notices. nil discards them.
	// Calls are serialized, so the callback may write to a shared
	// writer without its own locking.
	Logf func(format string, args ...any)
	// OnDone, when set, is called as each unique spec reaches a
	// successful terminal view — completion order, not submission
	// order — so long batched runs can report progress while Run
	// assembles the ordered results. Calls are serialized with Logf.
	OnDone func(spec hmcsim.Spec, view JobView)
	// OnProgress, when set, receives each in-flight job's live progress
	// events (sweep points done, simulation headway) from the stream the
	// fleet waits on. Calls are serialized with Logf and OnDone.
	OnProgress func(spec hmcsim.Spec, p JobProgress)
	// OnSpans, when set, receives the same terminal view as OnDone,
	// stages included, with the base URL of the daemon that ran the
	// job, right after OnDone and serialized with it. It is kept only
	// for bench/hmcbench, which still sets it; it goes with ROADMAP
	// item 9.
	OnSpans func(daemon string, spec hmcsim.Spec, sv SpanView)

	// logMu serializes the callbacks from concurrent dispatchers and
	// watchers.
	logMu sync.Mutex
}

// NewFleet builds a fleet over comma-separated daemon base URLs, e.g.
// "http://a:8080,http://b:8080".
func NewFleet(servers string) *Fleet {
	f := &Fleet{}
	for _, u := range strings.Split(servers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			f.Clients = append(f.Clients, &Client{Base: u})
		}
	}
	return f
}

func (f *Fleet) maxInflight() int {
	if f.MaxInflight > 0 {
		return f.MaxInflight
	}
	return 4
}

func (f *Fleet) retries() int {
	if f.Retries > 0 {
		return f.Retries
	}
	return 2
}

func (f *Fleet) logf(format string, args ...any) {
	if f.Logf != nil {
		f.logMu.Lock()
		defer f.logMu.Unlock()
		f.Logf(format, args...)
	}
}

// Experiments lists the registry of the first reachable daemon; the
// fleet serves one registry, so any daemon's answer stands for all.
func (f *Fleet) Experiments(ctx context.Context) ([]ExperimentView, error) {
	var firstErr error
	for _, c := range f.Clients {
		exps, err := c.Experiments(ctx)
		if err == nil {
			return exps, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = errors.New("fleet has no daemons")
	}
	return nil, firstErr
}

// fleetItem is one unit of fleet work: an index into the unique-spec
// list plus how many daemon failures it has survived.
type fleetItem struct {
	idx      int
	attempts int
}

// fleetRun is the shared state of one Fleet.Run call.
type fleetRun struct {
	f       *Fleet
	specs   []hmcsim.Spec // unique specs
	results []JobView     // one slot per unique spec

	pending   chan fleetItem // items awaiting a daemon; cap len(specs)
	remaining atomic.Int64   // unique specs not yet terminal
	live      atomic.Int64   // daemons still serving this run

	done  chan struct{} // closed when remaining reaches zero
	fatal chan struct{} // closed on the first unrecoverable error

	mu       sync.Mutex
	fatalErr error
}

// Run executes every spec on the fleet and returns one terminal view
// per spec, in submission order. Identical specs (by content key) are
// submitted once and share a view. A job canceled because its daemon
// is shutting down fails over like an unreachable daemon. Run fails as
// a whole when a spec fails or is cancelled server-side, when a spec
// exhausts its failover retries, or when every daemon becomes
// unreachable; on ctx cancellation it cancels its in-flight remote
// jobs (best-effort, short detached timeouts) before returning ctx's
// error.
func (f *Fleet) Run(ctx context.Context, specs []hmcsim.Spec) ([]JobView, error) {
	if len(f.Clients) == 0 {
		return nil, errors.New("fleet has no daemons")
	}
	if len(specs) == 0 {
		return nil, nil
	}

	// Dedup by content key: slot i of the original list maps to unique
	// spec pos[i].
	pos := make([]int, len(specs))
	uniqByKey := map[string]int{}
	var uniq []hmcsim.Spec
	for i, spec := range specs {
		key, err := spec.Key()
		if err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
		u, ok := uniqByKey[key]
		if !ok {
			u = len(uniq)
			uniqByKey[key] = u
			uniq = append(uniq, spec)
		}
		pos[i] = u
	}

	r := &fleetRun{
		f:       f,
		specs:   uniq,
		results: make([]JobView, len(uniq)),
		pending: make(chan fleetItem, len(uniq)),
		done:    make(chan struct{}),
		fatal:   make(chan struct{}),
	}
	r.remaining.Store(int64(len(uniq)))
	r.live.Store(int64(len(f.Clients)))
	for i := range uniq {
		r.pending <- fleetItem{idx: i}
	}

	// Daemons share ctx2; cancelling it (fatal error or caller
	// cancellation) makes every dispatcher drain its watchers and exit.
	ctx2, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for _, c := range f.Clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			r.daemon(ctx2, c)
		}(c)
	}

	assemble := func() []JobView {
		out := make([]JobView, len(specs))
		for i, u := range pos {
			out[i] = r.results[u]
		}
		return out
	}
	select {
	case <-r.done:
		wg.Wait()
		return assemble(), nil
	case <-r.fatal:
		cancel()
		wg.Wait()
		// Alongside the error, hand back whatever did complete (specs
		// that never finished hold zero-valued views), so a caller can
		// salvage a mostly-done sweep instead of discarding it.
		r.mu.Lock()
		defer r.mu.Unlock()
		return assemble(), r.fatalErr
	case <-ctx.Done():
		cancel()
		wg.Wait() // dispatchers cancel their in-flight remote jobs first
		return nil, ctx.Err()
	}
}

// finish records one unique spec's terminal view, which daemon c ran.
func (r *fleetRun) finish(c *Client, it fleetItem, v JobView) {
	r.f.logMu.Lock()
	if r.f.OnDone != nil {
		r.f.OnDone(r.specs[it.idx], v)
	}
	if r.f.OnSpans != nil {
		r.f.OnSpans(c.Base, r.specs[it.idx], v)
	}
	r.f.logMu.Unlock()
	r.results[it.idx] = v
	if r.remaining.Add(-1) == 0 {
		close(r.done)
	}
}

// fail records the first unrecoverable error and aborts the run.
func (r *fleetRun) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fatalErr == nil {
		r.fatalErr = err
		close(r.fatal)
	}
}

// requeue returns a daemon's unfinished item to the shared queue for a
// peer to pick up, charging it one failover attempt. The pending
// channel holds every unique spec, so the send can never block.
func (r *fleetRun) requeue(it fleetItem, c *Client, cause error) {
	it.attempts++
	if it.attempts > r.f.retries() {
		r.fail(fmt.Errorf("experiment %q failed on %s after %d attempts: %w",
			r.specs[it.idx].Exp, c.Base, it.attempts, cause))
		return
	}
	r.pending <- it
}

// daemonDied notes a dispatcher's exit; when the last daemon is gone
// with work still outstanding, the run cannot make progress.
func (r *fleetRun) daemonDied(c *Client, cause error) {
	r.f.logf("daemon %s failed over: %v", c.Base, cause)
	if r.live.Add(-1) == 0 && r.remaining.Load() > 0 {
		r.fail(fmt.Errorf("all daemons unreachable (last: %s): %w", c.Base, cause))
	}
}

// watchResult is one watcher goroutine's report back to its dispatcher.
type watchResult struct {
	it   fleetItem
	view JobView
	err  error
}

// daemon dispatches work to one daemon: it gathers up to its free
// in-flight capacity from the shared queue, submits the gathered specs
// as one batch, and hands each queued job to a watcher goroutine. A
// connection error — on submit or watch — kills the daemon for the rest
// of the run: its unfinished items requeue for the surviving peers.
func (r *fleetRun) daemon(ctx context.Context, c *Client) {
	maxIn := r.f.maxInflight()
	resc := make(chan watchResult, maxIn) // buffered: watchers never block
	inflight := 0
	// batchCap shrinks after a queue-full rejection so a daemon with a
	// tiny (or mostly-occupied) queue still makes progress one spec at a
	// time instead of resubmitting the same oversized batch forever; it
	// resets once a submission lands.
	batchCap := maxIn
	dead := false
	deadCause := error(nil)

	die := func(cause error) {
		if !dead {
			dead = true
			deadCause = cause
		}
	}

	ctxDone := ctx.Done()
	for {
		if dead && inflight == 0 {
			if deadCause != nil {
				r.daemonDied(c, deadCause)
			}
			return
		}
		// Only offer to take work while alive and under the in-flight
		// bound; a nil channel never selects.
		var pendc chan fleetItem
		if !dead && inflight < maxIn {
			pendc = r.pending
		}
		select {
		case <-ctxDone:
			die(nil)      // drain watchers, then exit without failover
			ctxDone = nil // fire once; keep selecting on resc
		case <-r.done:
			return
		case pr := <-resc:
			inflight--
			r.settle(ctx, c, pr, die)
		case first := <-pendc:
			// Gather whatever else is immediately available into one
			// batch submission — up to the in-flight bound, and up to a
			// fair share of the outstanding work so one fast dispatcher
			// does not hog a small backlog while its peers sit idle.
			share := int(r.remaining.Load())
			if live := int(r.live.Load()); live > 1 {
				share = (share + live - 1) / live
			}
			limit := min(maxIn-inflight, batchCap, max(share, 1))
			batch := []fleetItem{first}
		gather:
			for len(batch) < limit {
				select {
				case it := <-r.pending:
					batch = append(batch, it)
				default:
					break gather
				}
			}
			specs := make([]hmcsim.Spec, len(batch))
			for i, it := range batch {
				specs[i] = r.specs[it.idx]
			}
			views, err := c.SubmitBatch(ctx, specs)
			if err != nil {
				if r.submitFailed(ctx, c, batch, err, die) {
					batchCap = max(1, len(batch)/2)
				}
				continue
			}
			if len(views) != len(batch) {
				// A daemon that answers with the wrong number of views
				// is as broken as one that does not answer: indexing
				// into the batch would panic on an over-long response
				// and strand items on a short one.
				err := fmt.Errorf("daemon returned %d views for %d specs", len(views), len(batch))
				for _, it := range batch {
					r.requeue(it, c, err)
				}
				die(err)
				continue
			}
			batchCap = maxIn
			for i, v := range views {
				if v.State.Terminal() {
					r.settle(ctx, c, watchResult{it: batch[i], view: v}, die)
					continue
				}
				inflight++
				go r.watch(ctx, c, batch[i], v.ID, resc)
			}
		}
	}
}

// saturatedBackoff is how long a dispatcher waits before resubmitting
// to a daemon whose queue was full.
const saturatedBackoff = 100 * time.Millisecond

// submitFailed sorts a batch-submission error and reports whether the
// daemon is merely saturated. Queue-full admissions (identified by the
// server's machine-readable error code, not its prose) hand the work
// back and wait saturatedBackoff — all-or-nothing admission means
// nothing was created. Any other 5xx — a shutting-down daemon, or an
// intermediary's 500, 502, 503 or 504 — is treated as a dead daemon so
// its shard fails over instead of bouncing forever. Other 4xx errors
// are fatal (a bad spec stays bad on every daemon), and anything else
// is a connection failure that kills the daemon and fails its batch
// over.
func (r *fleetRun) submitFailed(ctx context.Context, c *Client, batch []fleetItem, err error, die func(error)) (saturated bool) {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch {
		case apiErr.Status == http.StatusServiceUnavailable && apiErr.Code == codeQueueFull:
			// The daemon is alive but saturated; hand the work back and
			// let in-flight completions (ours or other clients') free
			// queue slots before anyone retries.
			for _, it := range batch {
				r.pending <- it
			}
			select {
			case <-time.After(saturatedBackoff):
			case <-ctx.Done():
			case <-r.done:
			}
			return true
		case apiErr.Status >= 500,
			apiErr.Status == http.StatusNotFound,
			apiErr.Status == http.StatusMethodNotAllowed:
			// A daemon-level refusal, not a spec problem: shutting down,
			// a crashed daemon behind an intermediary (which is the only
			// source of a 500, 502 or 504; the daemon never sends them),
			// or a daemon that does not speak /v1/batch at all (an older
			// build mid-rolling-upgrade, a proxy rejecting the path). Its
			// shard fails over; peers may well serve it.
			for _, it := range batch {
				r.requeue(it, c, err)
			}
			die(err)
			return false
		}
		// Remaining 4xx errors (400 validation, ...) are properties of
		// the specs themselves: a bad spec stays bad on every daemon.
		r.fail(err)
		return false
	}
	if ctx.Err() != nil {
		// Caller cancellation, not a daemon failure. Whatever the daemon
		// admitted before the cancellation raced in is unknown — orphan
		// cleanup is the watcher's job for known IDs only.
		die(nil)
		return false
	}
	if errors.Is(err, ErrResponseTooLarge) {
		// A client-side bound, not a daemon fault: every daemon would
		// send the same oversized payload, so failover would only turn
		// the real cause into "all daemons unreachable".
		r.fail(err)
		return false
	}
	// Connection failure. If the daemon admitted the batch but the
	// response was lost, those jobs run unowned on it until they finish
	// — with no IDs there is nothing to cancel, the same gap as the
	// cancellation race above. The daemon is dead to this run either
	// way, duplicates on peers are deduplicated per daemon by content
	// key, and the orphans' results still land in that daemon's cache.
	for _, it := range batch {
		r.requeue(it, c, err)
	}
	die(err)
	return false
}

// settle sorts one terminal (or failed-to-watch) job outcome.
func (r *fleetRun) settle(ctx context.Context, c *Client, pr watchResult, die func(error)) {
	if pr.err != nil {
		if ctx.Err() != nil {
			die(nil) // cancelled mid-watch; the watcher already cancelled the orphan
			return
		}
		if errors.Is(pr.err, ErrResponseTooLarge) {
			r.fail(pr.err) // deterministic payload size; failover cannot help
			return
		}
		// Resubmitting elsewhere is the only recovery. A daemon that
		// answered, if unhelpfully (e.g. the job record was pruned),
		// stays alive; one that did not is dead to this run.
		r.requeue(pr.it, c, pr.err)
		var apiErr *APIError
		if !errors.As(pr.err, &apiErr) {
			die(pr.err)
		}
		return
	}
	switch v := pr.view; {
	case v.State == StateDone:
		r.finish(c, pr.it, v)
	case v.ErrorCode == codeQueueFull:
		// Not a property of the spec: the job coalesced onto a twin
		// that was canceled, and the server's adopt fallback lost its
		// non-blocking re-enqueue to a full queue. Saturation is
		// retryable (with the usual attempt bound), exactly like a
		// queue-full rejection at submit time.
		r.requeue(pr.it, c, errors.New(v.Error))
	case v.ErrorCode == codeShuttingDown:
		// The daemon canceled the job on its way down: the daemon is
		// gone for this run, and its work fails over to the peers.
		err := fmt.Errorf("job %s: %s", v.ID, v.Error)
		r.requeue(pr.it, c, err)
		die(err)
	case v.State == StateFailed:
		r.fail(fmt.Errorf("experiment %q failed on %s: %s", r.specs[pr.it.idx].Exp, c.Base, v.Error))
	default: // canceled server-side
		r.fail(fmt.Errorf("experiment %q canceled on %s", r.specs[pr.it.idx].Exp, c.Base))
	}
}

// watch waits one job to a terminal state on its progress stream,
// passing the stream's events to OnProgress when it is set. Abandoning
// a non-terminal job for any reason — caller cancellation, or a stream
// failure that will make the dispatcher resubmit the spec elsewhere —
// cancels it first (best-effort, short detached timeout), so it
// neither occupies a daemon worker without an owner nor simulates
// concurrently with its failover replacement.
func (r *fleetRun) watch(ctx context.Context, c *Client, it fleetItem, id string, resc chan<- watchResult) {
	var fn func(JobProgress)
	if r.f.OnProgress != nil {
		fn = func(p JobProgress) {
			r.f.logMu.Lock()
			r.f.OnProgress(r.specs[it.idx], p)
			r.f.logMu.Unlock()
		}
	}
	v, err := c.WatchJob(ctx, id, fn)
	if err != nil && !v.State.Terminal() {
		if cerr := c.CancelOrphan(id); cerr != nil {
			r.f.logf("could not cancel job %s on %s: %v", id, c.Base, cerr)
		} else {
			r.f.logf("canceled job %s on %s", id, c.Base)
		}
	}
	resc <- watchResult{it: it, view: v, err: err}
}
