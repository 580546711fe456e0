// Command hmcsimd serves the experiment registry over an HTTP JSON API:
// submitted specs flow through a bounded queue into a worker pool (one
// single-threaded deterministic engine per worker), and finished
// results are cached content-addressed by their canonical spec hash, so
// resubmitting an identical spec is served instantly.
//
// Usage:
//
//	hmcsimd [-addr :8080] [-workers N] [-queue N] [-cache N]
//	        [-maxjobs N] [-pprof] [-log-format text|json]
//
// The daemon logs structured job-lifecycle records (admission and
// completion, each carrying the job's spec key and the completion its
// queue, run and total milliseconds) to stderr; -log-format json
// switches them to one-JSON-object-per-line for log shippers.
//
// On SIGINT or SIGTERM the daemon cancels every queued and running job
// with the shutting_down error code, which a fleet client fails over to
// its other daemons, and then closes its listener.
//
// Endpoints:
//
//	POST   /v1/jobs        submit {"exp": "fig6", "options": {"quick": true}}
//	POST   /v1/batch       submit a JSON array of specs; admission is
//	                       all-or-nothing against the queue bound
//	GET    /v1/jobs/{id}   status and lifecycle stages (received, queued,
//	                       cache-check, running, marshal, done); includes
//	                       result and text when done
//	GET    /v1/jobs/{id}/progress
//	                       live progress as Server-Sent Events: sweep
//	                       points done/total and simulation headway,
//	                       ending with the terminal event
//	DELETE /v1/jobs/{id}   cancel a queued or running job
//	GET    /v1/experiments registry listing
//	GET    /v1/stats       queue, worker, job, cache, batch, inflight,
//	                       uptime, version and per-worker statistics,
//	                       aggregate simulation headway, and queue-wait
//	                       and end-to-end latency histograms
//	GET    /v1/healthz     liveness probe
//	GET    /debug/pprof/   runtime profiles (CPU, heap, ...; requires -pprof)
//
// With -pprof the endpoints profile the daemon under live load:
//
//	go tool pprof http://localhost:8080/debug/pprof/profile?seconds=10
//	go tool pprof http://localhost:8080/debug/pprof/heap
//
// They are opt-in because profiling is itself a workload (a CPU profile
// pins a core for its duration) and dumps expose internals; only enable
// them where the listen address is trusted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hmcsim/internal/exp"
	"hmcsim/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent simulations; 0 = NumCPU")
	queue := flag.Int("queue", 64, "queued-job bound; submissions beyond it get 503")
	cache := flag.Int("cache", 256, "result-cache entries (LRU)")
	maxJobs := flag.Int("maxjobs", 1024, "retained job records; oldest terminal records beyond this are dropped")
	withPprof := flag.Bool("pprof", false, "serve /debug/pprof/ profiling endpoints (expose only on trusted addresses)")
	logFormat := flag.String("log-format", "text", "structured log format on stderr: text or json")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "hmcsimd: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)

	svc := service.New(service.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cache,
		MaxJobs:      *maxJobs,
		Logger:       logger,
	}, exp.Runners())

	// The service handler owns the API routes; with -pprof the profiling
	// handlers mount beside it so the simulation hot paths can be
	// profiled in service mode, under the traffic that actually stresses
	// them.
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	if *withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	srv := &http.Server{Addr: *addr, Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("hmcsimd serving", "experiments", len(exp.Names()), "addr", *addr)

	select {
	case <-ctx.Done():
		logger.Info("hmcsimd shutting down")
		// Cancel the jobs first: each one's progress stream then ends
		// with its terminal event, so Shutdown need not wait out
		// streams whose simulation would keep running.
		svc.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Error("hmcsimd shutdown", "error", err.Error())
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "hmcsimd:", err)
			os.Exit(1)
		}
	}
}
