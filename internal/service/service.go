// Package service is the serving layer of the simulator: a bounded job
// queue feeding a worker pool, a content-addressed LRU result cache,
// and the HTTP JSON API that cmd/hmcsimd exposes.
//
// Every worker runs one single-threaded deterministic engine at a time
// (submitted specs execute with Workers=1), so N workers means N
// concurrent simulations and results are bit-identical to local runs.
// Completed results are cached under the canonical hash of their spec
// (hmcsim.Spec.Key), so resubmitting an identical spec is served
// instantly and byte-identically.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"hmcsim"
	"hmcsim/internal/obs"
)

var (
	errClosed    = errors.New("server is shutting down")
	errQueueFull = errors.New("job queue is full")
)

// Config sizes the serving layer. The zero value picks sensible
// defaults.
type Config struct {
	// Workers is the number of concurrent simulations; <= 0 means
	// runtime.NumCPU().
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker;
	// submissions beyond it are rejected with 503. <= 0 means 64.
	QueueDepth int
	// CacheEntries bounds the result cache; <= 0 means 256.
	CacheEntries int
	// MaxJobs bounds the job table: when exceeded, the oldest terminal
	// job records (and their status/result views) are dropped, so a
	// long-running daemon's memory stays flat. Queued and running jobs
	// are never dropped. <= 0 means 1024.
	MaxJobs int
	// Retain is how long a terminal job record is kept even past the
	// MaxJobs bound, so clients polling a just-finished job by ID never
	// see it vanish into a 404 mid-poll (the table may exceed MaxJobs
	// by up to one retention window of traffic). 0 means 30s; negative
	// disables retention and prunes strictly at MaxJobs.
	Retain time.Duration
	// Logger, when non-nil, receives structured job-lifecycle records
	// (admission, terminal state, latency), each carrying the job's spec
	// key, which correlates one spec's jobs across daemons and caches.
	// Nil disables lifecycle logging.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	switch {
	case c.Retain == 0:
		c.Retain = 30 * time.Second
	case c.Retain < 0:
		c.Retain = 0
	}
	return c
}

// Server owns the queue, the worker pool, the cache, and the job table.
type Server struct {
	cfg     Config
	runners map[string]hmcsim.Runner
	names   []string // registration order, for GET /v1/experiments
	cache   *Cache

	baseCtx context.Context
	stop    context.CancelCauseFunc
	queue   chan *Job
	wg      sync.WaitGroup

	// running tracks simulations executing right now; runningPeak is its
	// high-water mark since startup — the number a batch client checks to
	// confirm it really filled the worker pool.
	running     atomic.Int64
	runningPeak atomic.Int64
	// batches / batchSpecs count batch submissions and the specs they
	// carried.
	batches    atomic.Uint64
	batchSpecs atomic.Uint64

	// start anchors uptime; workers holds per-worker busy accounting.
	start   time.Time
	workers []workerStat
	// Daemon-wide simulation headway, aggregated from job progress
	// reports: engine events retired, simulated picoseconds advanced,
	// and sweep points finished across all jobs ever run.
	simEvents   atomic.Uint64
	simTimePs   atomic.Int64
	sweepPoints atomic.Uint64
	// histMu guards the latency histograms, in milliseconds: time spent
	// waiting for a worker (jobs a worker ran) and admission to terminal
	// state (every job). It is a leaf lock, taken under a job's mutex.
	histMu    sync.Mutex
	queueWait obs.Hist
	latency   obs.Hist

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // insertion order, for terminal-job pruning
	// inflight maps spec keys to their queued/running representative, so
	// a duplicate submission coalesces onto it instead of simulating the
	// same spec twice concurrently.
	inflight map[string]*Job
	seq      int
	closed   bool
}

// New builds a server over the given experiment runners (normally
// exp.Runners()) and starts its worker pool.
func New(cfg Config, runners []hmcsim.Runner) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:      cfg,
		runners:  make(map[string]hmcsim.Runner, len(runners)),
		cache:    NewCache(cfg.CacheEntries),
		baseCtx:  ctx,
		stop:     cancel,
		queue:    make(chan *Job, cfg.QueueDepth),
		jobs:     map[string]*Job{},
		inflight: map[string]*Job{},
	}
	s.start = time.Now()
	s.workers = make([]workerStat, cfg.Workers)
	for _, r := range runners {
		s.runners[r.Name()] = r
		s.names = append(s.names, r.Name())
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	return s
}

// workerStat is one worker's lifetime accounting. since holds the
// start of the in-progress job as unix nanoseconds (0 when idle), so
// busy time includes the job currently running.
type workerStat struct {
	jobs   atomic.Uint64
	busyNs atomic.Int64
	since  atomic.Int64
}

// busy returns total busy time including any in-progress job.
func (w *workerStat) busy() time.Duration {
	d := time.Duration(w.busyNs.Load())
	if since := w.since.Load(); since != 0 {
		d += time.Since(time.Unix(0, since))
	}
	return d
}

// Close cancels every queued, running and adopting job with the
// shutting_down code and stops the workers. Subsequent submissions are
// rejected.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	// Canceling under s.mu means an adopter that sees closed also sees
	// its context canceled by the shutdown.
	s.stop(errClosed)
	s.mu.Unlock()
	close(s.queue) // workers drain the (now canceled) backlog and exit
	s.wg.Wait()
}

// worker pulls jobs off the queue until the queue closes.
func (s *Server) worker(i int) {
	defer s.wg.Done()
	st := &s.workers[i]
	for job := range s.queue {
		st.since.Store(time.Now().UnixNano())
		s.runJob(job, i)
		st.busyNs.Add(time.Now().UnixNano() - st.since.Swap(0))
		st.jobs.Add(1)
		s.clearInflight(job)
	}
}

// clearInflight drops the in-flight index entry once its representative
// is terminal, but never a successor that reclaimed the key.
func (s *Server) clearInflight(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
}

// runJob executes one dequeued job on the given worker's goroutine.
func (s *Server) runJob(j *Job, worker int) {
	if !j.startRunning(worker) {
		return // canceled while queued
	}
	// An identical spec may have completed while this one waited, so
	// peek (without touching the hit/miss counters) before simulating.
	if blob, ok := s.cache.peek(j.key); ok {
		j.completeFromCache(blob)
		return
	}
	j.mark(&j.marks.cacheDone)
	if n := s.running.Add(1); n > s.runningPeak.Load() {
		// Racy read-then-CAS keeps the peak monotone without a lock.
		for {
			peak := s.runningPeak.Load()
			if n <= peak || s.runningPeak.CompareAndSwap(peak, n) {
				break
			}
		}
	}
	defer s.running.Add(-1)
	runner := s.runners[j.spec.Exp] // validated at submission
	o := j.spec.Options
	o.Workers = 1 // one engine per worker
	// Stream sweep/engine progress to the job's watchers and fold the
	// deltas into the daemon-wide counters. The sink serializes calls,
	// so last needs no lock.
	var last hmcsim.Progress
	pctx := hmcsim.WithProgress(j.ctx, func(p hmcsim.Progress) {
		s.simEvents.Add(p.Events - last.Events)
		s.simTimePs.Add(p.SimTimePs - last.SimTimePs)
		s.sweepPoints.Add(uint64(p.Done - last.Done))
		last = p
		j.setProgress(p)
	})
	res, err := runSafely(pctx, runner, o)
	j.mark(&j.marks.runEnd)
	switch {
	case j.ctx.Err() != nil:
		// The sweep returned early with partial data; discard it.
		j.finish(StateCanceled)
	case err != nil:
		j.fail(err.Error())
	default:
		blob, o, err := encodeOutcome(res)
		j.mark(&j.marks.marshalEnd)
		if err != nil {
			j.fail(fmt.Sprintf("encode result: %v", err))
			return
		}
		s.cache.Put(j.key, blob)
		j.complete(o, false)
	}
}

// jobFinished is every job's terminal hook, called with j.mu held: it
// feeds the latency histograms and, when a logger is configured, logs
// the job's terminal record.
func (s *Server) jobFinished(j *Job) {
	m := &j.marks
	ran := !m.runStart.IsZero()
	var queueMs, runMs float64
	if ran {
		queueMs = msBetween(m.queued, m.runStart)
		end := m.runEnd
		if end.IsZero() {
			end = j.finished
		}
		runMs = msBetween(m.runStart, end)
	}
	totalMs := msBetween(m.received, j.finished)
	s.histMu.Lock()
	s.latency.Observe(int(totalMs))
	if ran {
		s.queueWait.Observe(int(queueMs))
	}
	s.histMu.Unlock()
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info("job finished",
			"job", j.id, "exp", j.spec.Exp, "key", j.key,
			"state", string(j.state), "cached", j.cached, "worker", j.worker,
			"queueMs", queueMs, "runMs", runMs, "totalMs", totalMs,
			"error", j.err)
	}
}

// runSafely executes the runner, converting a panic into an error so
// one bad experiment cannot take down the worker pool.
func runSafely(ctx context.Context, r hmcsim.Runner, o hmcsim.Options) (res hmcsim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiment %s panicked: %v", r.Name(), p)
		}
	}()
	return r.Run(ctx, o)
}

// encodeOutcome marshals a result into the cache value format.
func encodeOutcome(res hmcsim.Result) ([]byte, outcome, error) {
	raw, err := json.Marshal(res)
	if err != nil {
		return nil, outcome{}, err
	}
	o := outcome{Result: raw, Text: res.String()}
	blob, err := json.Marshal(o)
	if err != nil {
		return nil, outcome{}, err
	}
	return blob, o, nil
}

// completeFromCache finishes a job with previously cached bytes.
func (j *Job) completeFromCache(blob []byte) {
	j.mark(&j.marks.cacheDone)
	var o outcome
	if err := json.Unmarshal(blob, &o); err != nil {
		j.fail(fmt.Sprintf("decode cached outcome: %v", err))
		return
	}
	j.complete(o, true)
}

// peek is Get without counter side effects, for the worker's dedup
// check (the submission already counted this spec's hit or miss).
func (c *Cache) peek(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// MaxBatchSpecs bounds one submission. Every admitted spec costs a job
// record (and an adoption goroutine when it coalesces), all created
// under the server lock, so an uncapped batch would let a single
// request flood the job table and stall every other endpoint.
const MaxBatchSpecs = 4096

// specErr prefixes an error with the offending spec's batch index, but
// only when there is more than one spec to point into.
func specErr(n, i int, err error) error {
	if n == 1 {
		return err
	}
	return fmt.Errorf("spec %d: %w", i, err)
}

// Submit validates and admits specs: cache hits come back as
// already-terminal jobs, duplicates (within the submission or of an
// already in-flight spec) coalesce onto one representative, and the
// rest are queued atomically — either every spec that needs a queue
// slot gets one, or the whole submission is rejected with the
// queue-full error and no job is created. Returned jobs are in
// submission order.
func (s *Server) Submit(specs ...hmcsim.Spec) ([]*Job, error) {
	if len(specs) == 0 {
		return nil, errors.New("empty batch")
	}
	if len(specs) > MaxBatchSpecs {
		return nil, fmt.Errorf("batch of %d specs exceeds the %d-spec limit; split the submission", len(specs), MaxBatchSpecs)
	}
	received := time.Now() // anchors every created job's stages
	// Validate everything before admitting anything: a bad spec late in
	// a batch must not leave the earlier ones running.
	keys := make([]string, len(specs))
	for i, spec := range specs {
		if _, ok := s.runners[spec.Exp]; !ok {
			return nil, specErr(len(specs), i, fmt.Errorf("unknown experiment %q (have %v)", spec.Exp, s.names))
		}
		// Reject malformed option payloads (e.g. an unknown traffic
		// pattern) before they consume a queue slot; the HTTP layer maps
		// this to a 400 with the same helpful message the CLI prints.
		if err := spec.Validate(); err != nil {
			return nil, specErr(len(specs), i, err)
		}
		key, err := spec.Key()
		if err != nil {
			return nil, specErr(len(specs), i, err)
		}
		keys[i] = key
	}

	// Decode cache hits before taking the server lock, so hit-heavy
	// traffic does not serialize all submissions behind unmarshal work.
	// In-batch duplicates of a cached key share one lookup and decode.
	hits := make([]*outcome, len(specs))
	hitByKey := map[string]*outcome{}
	for i, key := range keys {
		if o, ok := hitByKey[key]; ok {
			hits[i] = o
			continue
		}
		if blob, ok := s.cache.Get(key); ok {
			var o outcome
			if err := json.Unmarshal(blob, &o); err != nil {
				return nil, specErr(len(specs), i, fmt.Errorf("decode cached outcome: %w", err))
			}
			hitByKey[key] = &o
			hits[i] = &o
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	// All-or-nothing admission, decided in one classification pass: each
	// spec is a cache hit, an adoption (of an in-flight twin, or of an
	// earlier queue-bound spec in this same batch), or needs a queue
	// slot. The disposition is recorded here and replayed verbatim
	// below, so the number of queue sends exactly equals the slot count
	// checked against the queue — a twin turning terminal between the
	// two loops (workers finish jobs without taking s.mu) cannot reroute
	// a spec onto the queue path and block the send while s.mu is held.
	// Adopting a twin that has since gone terminal is fine: adopt
	// observes the closed Done channel and falls back through the cache
	// or a non-blocking re-enqueue. Every queue send in this server
	// happens under s.mu, so the free-slot count cannot shrink
	// underneath the admission loop; workers only ever free slots.
	const (
		dispHit = iota
		dispQueue
		dispAdoptTwin  // adopt the *Job in twins[i]
		dispAdoptBatch // adopt this batch's queue-bound job at index batchTwin[i]
	)
	disp := make([]int, len(specs))
	twins := make([]*Job, len(specs))
	batchTwin := make([]int, len(specs))
	queueFirst := map[string]int{} // key -> index of this batch's queue-bound spec
	need := 0
	for i := range specs {
		if hits[i] != nil {
			disp[i] = dispHit
			continue
		}
		if first, ok := queueFirst[keys[i]]; ok {
			disp[i] = dispAdoptBatch
			batchTwin[i] = first
			continue
		}
		if twin, ok := s.inflight[keys[i]]; ok && !twin.View().State.Terminal() {
			disp[i] = dispAdoptTwin
			twins[i] = twin
			continue
		}
		disp[i] = dispQueue
		queueFirst[keys[i]] = i
		need++
	}
	if free := cap(s.queue) - len(s.queue); need > free {
		if len(specs) == 1 {
			return nil, errQueueFull
		}
		return nil, fmt.Errorf("%w: batch needs %d queue slots, %d free", errQueueFull, need, free)
	}

	jobs := make([]*Job, len(specs))
	for i, spec := range specs {
		s.seq++
		ctx, cancel := context.WithCancel(s.baseCtx)
		j := &Job{
			id:     fmt.Sprintf("j%06d", s.seq),
			spec:   spec,
			key:    keys[i],
			ctx:    ctx,
			cancel: cancel,
			state:  StateQueued,
			done:   make(chan struct{}),
			worker: -1,
			srv:    s,
		}
		j.marks.received = received
		j.marks.queued = time.Now()
		jobs[i] = j
		if s.cfg.Logger != nil {
			s.cfg.Logger.Info("job admitted",
				"job", j.id, "exp", spec.Exp, "key", j.key,
				"cached", disp[i] == dispHit, "adopted", disp[i] == dispAdoptTwin || disp[i] == dispAdoptBatch)
		}
		switch disp[i] {
		case dispHit:
			j.mark(&j.marks.cacheDone)
			j.complete(*hits[i], true)
			s.insertLocked(j)
		case dispAdoptTwin:
			s.insertLocked(j)
			go s.adopt(j, twins[i])
		case dispAdoptBatch:
			s.insertLocked(j)
			go s.adopt(j, jobs[batchTwin[i]])
		default: // dispQueue
			s.queue <- j // cannot block: admission reserved exactly these slots
			s.inflight[keys[i]] = j
			s.insertLocked(j)
		}
	}
	return jobs, nil
}

// adopt parks a duplicate job on its in-flight twin: when the twin
// completes, the duplicate is served from the cache it populated. If
// the twin failed or was canceled instead, the duplicate re-adopts any
// representative that has taken over the key in the meantime, and only
// runs on its own when no active twin remains — so one spec never
// simulates twice concurrently.
func (s *Server) adopt(j, twin *Job) {
	for {
		select {
		case <-twin.Done():
		case <-j.ctx.Done():
			j.finish(StateCanceled) // duplicate canceled (or server closing) while waiting
			return
		}
		if blob, ok := s.cache.peek(j.key); ok {
			j.completeFromCache(blob)
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			j.finish(StateCanceled)
			return
		}
		if next, ok := s.inflight[j.key]; ok && !next.View().State.Terminal() {
			// A fresh submission became the representative while the
			// failed twin wound down; wait on it instead.
			s.mu.Unlock()
			twin = next
			continue
		}
		select {
		case s.queue <- j:
			s.inflight[j.key] = j // the duplicate is the new representative
		default:
			j.failCode(errQueueFull.Error(), codeQueueFull)
		}
		s.mu.Unlock()
		return
	}
}

// insertLocked records a job and prunes the oldest terminal records
// beyond the MaxJobs bound, keeping daemon memory flat under steady
// traffic. Active (queued or running) jobs are never pruned, and
// terminal ones linger for the Retain window so a client polling a
// just-finished job by ID does not see it vanish into a 404.
func (s *Server) insertLocked(j *Job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	cutoff := time.Now().Add(-s.cfg.Retain)
	for len(s.jobs) > s.cfg.MaxJobs {
		pruned := false
		for i, id := range s.order {
			if fin := s.jobs[id].finishedAt(); !fin.IsZero() && !fin.After(cutoff) {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			return // everything is active or within retention; let the table grow
		}
	}
}

// Job looks a submitted job up by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Stats is the GET /v1/stats payload.
type Stats struct {
	Experiments int           `json:"experiments"`
	Workers     int           `json:"workers"`
	QueueDepth  int           `json:"queueDepth"`
	QueueCap    int           `json:"queueCap"`
	Jobs        map[State]int `json:"jobs"`
	Cache       CacheStats    `json:"cache"`
	// Inflight is the number of simulations executing right now;
	// InflightPeak is its high-water mark since startup — proof (or
	// refutation) that batch clients actually fill the worker pool.
	Inflight     int `json:"inflight"`
	InflightPeak int `json:"inflightPeak"`
	// Batches / BatchSpecs count POST /v1/batch submissions and the
	// specs they carried.
	Batches    uint64 `json:"batches"`
	BatchSpecs uint64 `json:"batchSpecs"`
	// Process health: seconds since startup, the build version, and the
	// live goroutine count.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Version       string  `json:"version"`
	Goroutines    int     `json:"goroutines"`
	// WorkerStats is one row per pool worker: jobs completed and busy
	// vs idle wall time (busy includes the job running right now).
	WorkerStats []WorkerStatView `json:"workerStats"`
	// Simulation headway aggregated across every job the daemon has
	// run: engine events retired, simulated milliseconds advanced, and
	// sweep points completed.
	SimEvents   uint64  `json:"simEvents"`
	SimTimeMs   float64 `json:"simTimeMs"`
	SweepPoints uint64  `json:"sweepPoints"`
	// QueueWaitMs summarizes how long jobs a worker ran waited for it;
	// LatencyMs, every job's admission-to-terminal latency. Both are in
	// milliseconds.
	QueueWaitMs obs.HistSummary `json:"queueWaitMs"`
	LatencyMs   obs.HistSummary `json:"latencyMs"`
}

// WorkerStatView is one worker's row in Stats.
type WorkerStatView struct {
	Worker int     `json:"worker"`
	Jobs   uint64  `json:"jobs"`
	BusyMs float64 `json:"busyMs"`
	IdleMs float64 `json:"idleMs"`
}

// Snapshot gathers current serving statistics.
func (s *Server) Snapshot() Stats {
	s.mu.Lock()
	jobs := map[State]int{}
	for _, j := range s.jobs {
		jobs[j.View().State]++
	}
	queued := len(s.queue)
	s.mu.Unlock()
	uptime := time.Since(s.start)
	ws := make([]WorkerStatView, len(s.workers))
	for i := range s.workers {
		busy := s.workers[i].busy()
		idle := uptime - busy
		if idle < 0 {
			idle = 0
		}
		ws[i] = WorkerStatView{
			Worker: i,
			Jobs:   s.workers[i].jobs.Load(),
			BusyMs: float64(busy.Microseconds()) / 1000,
			IdleMs: float64(idle.Microseconds()) / 1000,
		}
	}
	s.histMu.Lock()
	queueWait, latency := s.queueWait.Summarize(), s.latency.Summarize()
	s.histMu.Unlock()
	return Stats{
		Experiments:   len(s.names),
		Workers:       s.cfg.Workers,
		QueueDepth:    queued,
		QueueCap:      s.cfg.QueueDepth,
		Jobs:          jobs,
		Cache:         s.cache.Stats(),
		Inflight:      int(s.running.Load()),
		InflightPeak:  int(s.runningPeak.Load()),
		Batches:       s.batches.Load(),
		BatchSpecs:    s.batchSpecs.Load(),
		UptimeSeconds: uptime.Seconds(),
		Version:       version(),
		Goroutines:    runtime.NumGoroutine(),
		WorkerStats:   ws,
		SimEvents:     s.simEvents.Load(),
		SimTimeMs:     float64(s.simTimePs.Load()) / 1e9,
		SweepPoints:   s.sweepPoints.Load(),
		QueueWaitMs:   queueWait,
		LatencyMs:     latency,
	}
}

// Version, when set via -ldflags "-X hmcsim/internal/service.Version=v1.2.3",
// overrides the module build info in /v1/stats.
var Version string

// version resolves the served build version: the ldflags override, the
// module version stamped by the Go toolchain, or "devel".
func version() string {
	if Version != "" {
		return Version
	}
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}
