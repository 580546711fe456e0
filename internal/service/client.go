package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"hmcsim"
)

// Client talks to a running hmcsimd over its HTTP JSON API. It is what
// backs `hmcsim -server URL`.
type Client struct {
	// Base is the daemon's base URL, e.g. "http://localhost:8080".
	Base string
	// HTTP overrides the transport; nil uses a default client with a
	// 30-second per-request timeout so an unresponsive daemon surfaces
	// as an error (set HTTP to http.DefaultClient for no deadline).
	HTTP *http.Client
}

// defaultHTTPClient bounds every request so a blackholed daemon — one
// that accepts connections but never answers — surfaces as an error
// that drives fleet failover instead of hanging the run. Individual
// API calls are small and fast; a long simulation is waited out on its
// progress stream, whose idle time WatchJob bounds instead.
var defaultHTTPClient = &http.Client{Timeout: 30 * time.Second}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTPClient
}

// maxResponseBytes bounds how much of a response body the client will
// buffer — the mirror of the server's 1 MiB MaxBytesReader request
// bound — so a misbehaving endpoint cannot balloon client memory.
// Endpoints that return JobViews get the larger per-view budget, since
// a terminal view inlines the full result JSON plus its rendered text;
// batch responses scale that budget by the number of specs. The same
// payload must never be acceptable through one endpoint and over-cap
// through another.
const (
	maxResponseBytes      = 1 << 20
	maxViewBytes          = 4 << 20
	maxBatchResponseBytes = 64 << 20
)

// ErrResponseTooLarge marks a response that overran the client's size
// bound. It is a client-side condition, not a daemon failure: a fleet
// treats it as fatal (the same oversized result would come back from
// every daemon) instead of failing the work over.
var ErrResponseTooLarge = errors.New("response body exceeds the client bound")

// APIError is a non-2xx daemon response: the HTTP status plus the
// server's error message and machine-readable code. A Fleet uses the
// status and code to tell retryable conditions (a full queue) from
// daemon-dead ones (shutting down) and fatal ones (a bad spec).
type APIError struct {
	Status  int    // HTTP status code
	Method  string // request method
	Path    string // request path
	Message string // the server's error message, if it sent one
	Code    string // the server's machine-readable cause, if it sent one
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("%s %s: %s (%d %s)", e.Method, e.Path, e.Message, e.Status, http.StatusText(e.Status))
	}
	return fmt.Sprintf("%s %s: %d %s", e.Method, e.Path, e.Status, http.StatusText(e.Status))
}

// do issues one request and decodes the JSON response into out,
// converting non-2xx statuses into *APIError values carrying the
// server's error message and code.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	return c.doCapped(ctx, method, path, body, out, maxResponseBytes)
}

// doCapped is do with an explicit response-size bound, for endpoints
// whose legitimate payload scales with the request (a batch response
// inlines one full result per cache-hit spec).
func (c *Client) doCapped(ctx context.Context, method, path string, body, out any, capBytes int64) error {
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimSuffix(c.Base, "/")+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, capBytes+1))
	if err != nil {
		return err
	}
	if int64(len(blob)) > capBytes {
		return fmt.Errorf("%s %s: %w (%d bytes allowed)", method, path, ErrResponseTooLarge, capBytes)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		apiErr := &APIError{Status: resp.StatusCode, Method: method, Path: path}
		var e errorBody
		if json.Unmarshal(blob, &e) == nil && e.Error != "" {
			apiErr.Message = e.Error
			apiErr.Code = e.Code
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(blob, out)
}

// Submit posts a spec and returns the created (or cache-served) job.
func (c *Client) Submit(ctx context.Context, spec hmcsim.Spec) (JobView, error) {
	var v JobView
	err := c.doCapped(ctx, http.MethodPost, "/v1/jobs", spec, &v, maxViewBytes)
	return v, err
}

// SubmitBatch posts a list of specs to /v1/batch and returns one view
// per spec in submission order. Admission is all-or-nothing on the
// daemon: a queue-full error means no job was created. The response
// bound scales with the batch size — every cache-hit spec comes back
// with its full result inlined — but is clamped to a fixed ceiling so
// the bound stays a real memory guarantee; a batch of thousands of
// large cache hits must be split by the caller instead.
func (c *Client) SubmitBatch(ctx context.Context, specs []hmcsim.Spec) ([]JobView, error) {
	capBytes := min(int64(max(len(specs), 1))*maxViewBytes, maxBatchResponseBytes)
	var out []JobView
	err := c.doCapped(ctx, http.MethodPost, "/v1/batch", specs, &out, capBytes)
	return out, err
}

// Job fetches one job's current view, its stages included.
func (c *Client) Job(ctx context.Context, id string) (JobView, error) {
	var v JobView
	err := c.doCapped(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &v, maxViewBytes)
	return v, err
}

// Cancel requests cancellation and returns the resulting view.
func (c *Client) Cancel(ctx context.Context, id string) (JobView, error) {
	var v JobView
	err := c.doCapped(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &v, maxViewBytes)
	return v, err
}

// streamClient returns an HTTP client for long-lived streams: the
// configured client's transport without its overall Timeout, which
// would kill a progress stream mid-simulation. WatchJob bounds the
// stream's idle time instead.
func (c *Client) streamClient() *http.Client {
	base := c.httpClient()
	return &http.Client{
		Transport:     base.Transport,
		CheckRedirect: base.CheckRedirect,
		Jar:           base.Jar,
	}
}

// maxStreamLineBytes bounds one SSE line; progress events are ~200
// bytes, so 1 MiB is pure hostile-input armor.
const maxStreamLineBytes = 1 << 20

// WatchJob subscribes to GET /v1/jobs/{id}/progress and invokes fn for
// every event, the terminal one included. Once the stream reports a
// terminal state it fetches and returns the job's full view (the
// stream itself carries only progress counters). The daemon pings an
// idle stream every sseKeepAlive, so a stream that delivers no line
// for twice that long has stalled and fails. An error leaves the job
// running; a caller abandoning it cancels it with CancelOrphan.
func (c *Client) WatchJob(ctx context.Context, id string, fn func(JobProgress)) (JobView, error) {
	path := "/v1/jobs/" + id + "/progress"
	idle := 2 * sseKeepAlive
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stall := time.AfterFunc(idle, cancel)
	defer stall.Stop()
	// stalled turns the stream's own cancellation into an error that
	// says why; the caller's cancellation passes through as it is.
	stalled := func(err error) error {
		if ctx.Err() == nil && sctx.Err() != nil {
			return fmt.Errorf("GET %s: no event or keep-alive for %v", path, idle)
		}
		return err
	}
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, strings.TrimSuffix(c.Base, "/")+path, nil)
	if err != nil {
		return JobView{}, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.streamClient().Do(req)
	if err != nil {
		return JobView{}, stalled(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		apiErr := &APIError{Status: resp.StatusCode, Method: http.MethodGet, Path: path}
		blob, _ := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
		var e errorBody
		if json.Unmarshal(blob, &e) == nil && e.Error != "" {
			apiErr.Message = e.Error
			apiErr.Code = e.Code
		}
		return JobView{}, apiErr
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), maxStreamLineBytes)
	for sc.Scan() {
		stall.Reset(idle)
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue // comments, blank event separators
		}
		var p JobProgress
		if err := json.Unmarshal([]byte(line[len("data: "):]), &p); err != nil {
			return JobView{}, fmt.Errorf("GET %s: decode progress event: %w", path, err)
		}
		if fn != nil {
			fn(p)
		}
		if p.State.Terminal() {
			stall.Stop()
			return c.Job(ctx, id)
		}
	}
	if err := sc.Err(); err != nil {
		return JobView{}, stalled(err)
	}
	return JobView{}, fmt.Errorf("GET %s: stream ended without a terminal event: %w", path, io.ErrUnexpectedEOF)
}

// CancelOrphan cancels a job whose caller is abandoning it, detached
// from the (typically already-cancelled) caller context and bounded by
// a short timeout so unwinding never hangs on a dead daemon.
func (c *Client) CancelOrphan(id string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := c.Cancel(ctx, id)
	return err
}

// Spans is Job, kept only for bench/hmcbench, which still calls it; it
// goes with ROADMAP item 9.
func (c *Client) Spans(ctx context.Context, id string) (SpanView, error) {
	return c.Job(ctx, id)
}

// Experiments lists the daemon's registry.
func (c *Client) Experiments(ctx context.Context) ([]ExperimentView, error) {
	var out []ExperimentView
	err := c.do(ctx, http.MethodGet, "/v1/experiments", nil, &out)
	return out, err
}

// Stats fetches serving statistics.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var out Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}
