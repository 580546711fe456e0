package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"hmcsim"
)

// ExperimentView is one row of GET /v1/experiments.
type ExperimentView struct {
	Name  string `json:"name"`
	Title string `json:"title"`
}

// errorBody is the JSON error envelope every non-2xx response uses.
// Code carries the machine-readable cause for errors clients must tell
// apart (a full queue is worth waiting out; a shutting-down daemon is
// not) — matching on the human-readable text would break the moment it
// is reworded or a proxy rewrites the body.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// Machine-readable error codes carried in errorBody.Code.
const (
	codeQueueFull    = "queue_full"
	codeShuttingDown = "shutting_down"
)

// errorCode maps sentinel errors to their wire code.
func errorCode(err error) string {
	switch {
	case errors.Is(err, errQueueFull):
		return codeQueueFull
	case errors.Is(err, errClosed):
		return codeShuttingDown
	}
	return ""
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs        submit a spec; 200 on a cache hit, 202 queued
//	POST   /v1/batch       submit a JSON array of specs atomically;
//	                       200 when every job is already terminal
//	                       (cache hits), 202 otherwise
//	GET    /v1/jobs/{id}   job status and, when done, its result
//	GET    /v1/jobs/{id}/progress
//	                       live progress as Server-Sent Events, ending
//	                       with the terminal event
//	GET    /v1/jobs/{id}/spans
//	                       the job's lifecycle stage breakdown (received,
//	                       queued, cache-check, running, marshal, done)
//	DELETE /v1/jobs/{id}   cancel a queued or running job
//	GET    /v1/experiments the experiment registry
//	GET    /v1/stats       queue, worker, job and cache statistics, plus
//	                       queue-wait and latency histograms
//	GET    /v1/healthz     liveness probe
//
// Submissions may carry an X-Hmcsim-Trace-Id header; the ID is stamped
// on every job the request creates and echoed in span views and the
// daemon's job log records, correlating one logical run across daemons.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /v1/jobs/{id}/spans", s.handleSpans)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection is gone; nothing to do
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error(), Code: errorCode(err)})
}

// errTrailingData rejects a body that holds more than one JSON value.
var errTrailingData = errors.New("body holds data after its JSON value")

// decodeBody decodes a submission body of at most limit bytes into v,
// answering 400 itself unless the body is exactly one JSON value of v's
// shape: only whitespace may follow the value, so a second value or
// garbage after the first is not silently dropped.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		var tooLarge *http.MaxBytesError
		if !errors.As(err, &tooLarge) {
			err = errTrailingData
		}
	}
	writeError(w, http.StatusBadRequest, err)
	return false
}

// admit submits a request's specs and returns their views, in
// submission order, with the status to answer: 200 when every job is
// already terminal (cache hits), 202 otherwise. It answers a rejected
// submission itself and then returns no views.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, specs ...hmcsim.Spec) ([]JobView, int) {
	jobs, err := s.Submit(r.Header.Get(TraceHeader), specs...)
	switch {
	case errors.Is(err, errQueueFull), errors.Is(err, errClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return nil, 0
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return nil, 0
	}
	status := http.StatusOK
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.View()
		if !views[i].State.Terminal() {
			status = http.StatusAccepted
		}
	}
	return views, status
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Specs are a few dozen bytes; bound the body so one hostile POST
	// cannot balloon daemon memory.
	var spec hmcsim.Spec
	if !decodeBody(w, r, 1<<20, &spec) {
		return
	}
	if views, status := s.admit(w, r, spec); views != nil {
		writeJSON(w, status, views[0])
	}
}

// handleBatch admits a JSON array of specs in one request. Admission is
// all-or-nothing: a 503 means no job was created, so a retrying client
// never has to reconcile a half-admitted batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	// Batches legitimately carry thousands of specs (a whole sweep in
	// one post), so the bound is 16x the single-spec endpoint's — room
	// for ~10^5 specs while still capping a hostile body.
	var specs []hmcsim.Spec
	if !decodeBody(w, r, 16<<20, &specs) {
		return
	}
	views, status := s.admit(w, r, specs...)
	if views == nil {
		return
	}
	s.batches.Add(1)
	s.batchSpecs.Add(uint64(len(specs)))
	writeJSON(w, status, views)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, j.Spans())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	out := make([]ExperimentView, 0, len(s.names))
	for _, name := range s.names {
		out = append(out, ExperimentView{Name: name, Title: s.runners[name].Describe()})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
