package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"hmcsim"
)

// State is a job's lifecycle position. Transitions are
// queued → running → done|failed, plus queued|running → canceled.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether no further transition can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// outcome is the cached value format: the result's JSON plus the
// pre-rendered human text (which Result excludes from its own JSON).
// The result bytes pass through json.RawMessage untouched, so cache
// hits are byte-identical to the run that populated them.
type outcome struct {
	Result json.RawMessage `json:"result"`
	Text   string          `json:"text"`
}

// Job is one submitted simulation request moving through the queue and
// worker pool.
type Job struct {
	id   string
	spec hmcsim.Spec
	key  string

	// ctx governs this job only; cancel flips queued jobs straight to
	// canceled and asks running ones to abandon their sweep.
	ctx    context.Context
	cancel context.CancelFunc
	// done closes when the job reaches a terminal state.
	done chan struct{}

	mu       sync.Mutex
	state    State
	cached   bool
	err      string
	errCode  string
	result   json.RawMessage
	text     string
	finished time.Time

	// marks are the stage timestamps; worker is the pool index that ran
	// the job (-1 when none did), for the job log; srv is the server
	// that admitted it, whose terminal hook runs at the terminal
	// transition.
	worker int
	marks  stageMarks
	srv    *Server

	// prog is the latest live-progress snapshot from the running sweep;
	// watchers are progress streams (SSE handlers), each a capacity-1
	// latest-value channel so a slow consumer only coarsens its own
	// updates and never blocks the simulation.
	prog     hmcsim.Progress
	watchers map[chan JobProgress]struct{}
}

// JobProgress is one event on the GET /v1/jobs/{id}/progress stream.
type JobProgress struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Done / Total count finished and scheduled sweep points.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Events and SimTimePs measure simulation headway: engine events
	// retired and simulated picoseconds advanced, summed across the
	// job's engines.
	Events    uint64  `json:"events"`
	SimTimePs int64   `json:"simTimePs"`
	ElapsedMs float64 `json:"elapsedMs"`
}

// progressLocked snapshots the stream event for the current state.
func (j *Job) progressLocked() JobProgress {
	p := JobProgress{
		ID:        j.id,
		State:     j.state,
		Done:      j.prog.Done,
		Total:     j.prog.Total,
		Events:    j.prog.Events,
		SimTimePs: j.prog.SimTimePs,
	}
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	p.ElapsedMs = msBetween(j.marks.received, end)
	return p
}

// setProgress records a live snapshot and fans it out to watchers.
func (j *Job) setProgress(p hmcsim.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return // the terminal event has already been broadcast
	}
	j.prog = p
	j.notifyLocked()
}

// notifyLocked delivers the current progress event to every watcher,
// replacing any undelivered previous event (latest-value semantics).
func (j *Job) notifyLocked() {
	if len(j.watchers) == 0 {
		return
	}
	p := j.progressLocked()
	for ch := range j.watchers {
		select {
		case ch <- p:
		default:
			select {
			case <-ch: // drop the stale event
			default:
			}
			select {
			case ch <- p:
			default:
			}
		}
	}
}

// watch subscribes to the job's progress stream. The returned channel
// immediately carries the current snapshot (for terminal jobs, the
// terminal event), so a late subscriber always observes at least one
// event. stop unsubscribes; the channel is never closed.
func (j *Job) watch() (ch chan JobProgress, stop func()) {
	ch = make(chan JobProgress, 1)
	j.mu.Lock()
	if j.watchers == nil {
		j.watchers = map[chan JobProgress]struct{}{}
	}
	j.watchers[ch] = struct{}{}
	ch <- j.progressLocked()
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.watchers, ch)
		j.mu.Unlock()
	}
}

// JobView is the job's wire representation.
type JobView struct {
	ID    string      `json:"id"`
	State State       `json:"state"`
	Spec  hmcsim.Spec `json:"spec"`
	// Key is the spec's content address — the cache key.
	Key string `json:"key"`
	// Cached marks results served from the cache rather than computed
	// by this job.
	Cached bool   `json:"cached"`
	Error  string `json:"error,omitempty"`
	// ErrorCode is the machine-readable cause of an outcome clients must
	// classify; prose in Error is for humans. queue_full marks a failed
	// job whose coalescing fallback lost its re-enqueue to a full queue,
	// and shutting_down a job canceled because its daemon is closing.
	ErrorCode string          `json:"errorCode,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Text      string          `json:"text,omitempty"`
	// ElapsedMs is submission-to-terminal wall time; ~0 for cache hits.
	ElapsedMs float64 `json:"elapsedMs,omitempty"`
	// Stages break the job's wall time down by lifecycle stage, in
	// order: received, queued, cache-check, running, marshal, done. A
	// stage the job never reached is omitted, and only a terminal job
	// has done, so a terminal job's stages tile ElapsedMs.
	Stages []SpanStage `json:"stages,omitempty"`
}

// SpanStage is one contiguous lifecycle stage; StartMs is relative to
// the job's admission.
type SpanStage struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"startMs"`
	DurMs   float64 `json:"durMs"`
}

// SpanView is kept only for bench/hmcbench, which still reads a job's
// stages through it; it goes with ROADMAP item 9.
type SpanView = JobView

// stageMarks are the monotonic lifecycle timestamps a job accumulates
// on its way through the serving layer. Zero marks mean the job skipped
// that stage (e.g. a submission-time cache hit never starts running).
type stageMarks struct {
	received   time.Time // request admission began
	queued     time.Time // job record created, queue slot decided
	runStart   time.Time // a worker picked the job up
	cacheDone  time.Time // the worker's (or submit path's) cache check ended
	runEnd     time.Time // the simulation returned
	marshalEnd time.Time // the result finished encoding
}

func msBetween(a, b time.Time) float64 {
	return float64(b.Sub(a).Microseconds()) / 1000
}

// Decode unpacks a terminal view's result into the public Result type,
// restoring the pre-rendered text that Result excludes from its own
// JSON. It errors on non-done views, carrying the job's error message
// for failed ones.
func (v JobView) Decode() (hmcsim.Result, error) {
	switch v.State {
	case StateDone:
	case StateFailed:
		return hmcsim.Result{}, fmt.Errorf("job %s failed: %s", v.ID, v.Error)
	default:
		return hmcsim.Result{}, fmt.Errorf("job %s is %s, not done", v.ID, v.State)
	}
	var res hmcsim.Result
	if err := json.Unmarshal(v.Result, &res); err != nil {
		return hmcsim.Result{}, fmt.Errorf("decode job %s result: %w", v.ID, err)
	}
	res.Text = v.Text
	return res, nil
}

// View snapshots the job for serialization. Each recorded mark closes
// the stage that led to it and the terminal transition closes done, so
// the stages are contiguous from the job's admission.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.id,
		State:     j.state,
		Spec:      j.spec,
		Key:       j.key,
		Cached:    j.cached,
		Error:     j.err,
		ErrorCode: j.errCode,
		Result:    j.result,
		Text:      j.text,
	}
	m := &j.marks
	prev := m.received
	v.Stages = make([]SpanStage, 0, 6)
	stage := func(name string, at time.Time) {
		if at.IsZero() || at.Before(prev) {
			return
		}
		v.Stages = append(v.Stages, SpanStage{
			Name:    name,
			StartMs: msBetween(m.received, prev),
			DurMs:   msBetween(prev, at),
		})
		prev = at
	}
	stage("received", m.queued)
	stage("queued", m.runStart)
	stage("cache-check", m.cacheDone)
	stage("running", m.runEnd)
	stage("marshal", m.marshalEnd)
	if !j.finished.IsZero() {
		stage("done", j.finished)
		v.ElapsedMs = msBetween(m.received, j.finished)
	}
	return v
}

// mark stamps one stage mark the first time it is reached, so the
// submit-path and worker-path cache checks cannot double-stamp.
func (j *Job) mark(at *time.Time) {
	j.mu.Lock()
	if at.IsZero() {
		*at = time.Now()
	}
	j.mu.Unlock()
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// finishedAt returns when the job went terminal (zero while active).
func (j *Job) finishedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finished
}

// startRunning moves queued → running on the given pool worker; it
// fails when the job was canceled (or its context expired) while
// waiting in the queue.
func (j *Job) startRunning(worker int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	if j.ctx.Err() != nil {
		j.finishLocked(StateCanceled)
		return false
	}
	j.state = StateRunning
	j.worker = worker
	j.marks.runStart = time.Now()
	return true
}

// finish moves the job to a terminal state; later calls are no-ops.
func (j *Job) finish(s State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finishLocked(s)
}

func (j *Job) finishLocked(s State) {
	if j.state.Terminal() {
		return
	}
	j.state = s
	if s == StateCanceled && errors.Is(context.Cause(j.ctx), errClosed) {
		j.err, j.errCode = errClosed.Error(), codeShuttingDown
	}
	j.finished = time.Now()
	j.cancel() // release the context's resources
	close(j.done)
	j.notifyLocked() // terminal progress event, never dropped by new sends
	j.srv.jobFinished(j)
}

// complete records a successful outcome. cached marks results served
// from the cache rather than computed by this job.
func (j *Job) complete(o outcome, cached bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.result = o.Result
	j.text = o.Text
	j.cached = cached
	j.finishLocked(StateDone)
}

// fail records an error outcome.
func (j *Job) fail(msg string) { j.failCode(msg, "") }

// failCode records an error outcome with a machine-readable cause.
func (j *Job) failCode(msg, code string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.err = msg
	j.errCode = code
	j.finishLocked(StateFailed)
}

// Cancel requests cancellation: queued jobs flip to canceled
// immediately, running jobs stop at their next sweep point, terminal
// jobs are unaffected.
func (j *Job) Cancel() {
	j.cancel()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateQueued {
		j.finishLocked(StateCanceled)
	}
}
