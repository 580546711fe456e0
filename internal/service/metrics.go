package service

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"hmcsim/internal/obs"
)

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format (text/plain; version=0.0.4), hand-rolled so the daemon stays
// dependency-free. It exports the same counters as /v1/stats — queue,
// cache, inflight, batch — plus per-worker busy time and the aggregated
// simulation headway the engine checkpoints report.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Snapshot()
	var b strings.Builder

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	// histogram renders an obs.Hist as a real Prometheus histogram:
	// cumulative _bucket series under the hist's power-of-two bounds,
	// plus _sum and _count. Every bucket is emitted (zeros included) so
	// quantile queries see a stable le set.
	histogram := func(name, help string, h obs.Hist) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		var cum uint64
		for i := range h.Buckets {
			cum += h.Buckets[i]
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", name, obs.BucketLabel(i), cum)
		}
		fmt.Fprintf(&b, "%s_sum %d\n%s_count %d\n", name, h.Sum, name, h.Count)
	}

	fmt.Fprintf(&b, "# HELP hmcsim_build_info Build version as a label.\n"+
		"# TYPE hmcsim_build_info gauge\nhmcsim_build_info{version=%q} 1\n", st.Version)
	gauge("hmcsim_uptime_seconds", "Seconds since daemon start.", st.UptimeSeconds)
	gauge("hmcsim_goroutines", "Live goroutines in the daemon process.", float64(st.Goroutines))
	gauge("hmcsim_workers", "Size of the simulation worker pool.", float64(st.Workers))
	gauge("hmcsim_experiments", "Registered experiment runners.", float64(st.Experiments))
	gauge("hmcsim_queue_depth", "Jobs waiting for a worker.", float64(st.QueueDepth))
	gauge("hmcsim_queue_capacity", "Job queue capacity.", float64(st.QueueCap))
	gauge("hmcsim_inflight", "Simulations executing right now.", float64(st.Inflight))
	gauge("hmcsim_inflight_peak", "High-water mark of concurrent simulations.", float64(st.InflightPeak))

	// One gauge per job state, every known state always present so
	// dashboards see explicit zeros.
	fmt.Fprintf(&b, "# HELP hmcsim_jobs Jobs in the table by state.\n# TYPE hmcsim_jobs gauge\n")
	states := []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled}
	for _, state := range states {
		fmt.Fprintf(&b, "hmcsim_jobs{state=%q} %d\n", string(state), st.Jobs[state])
	}
	// Defensive: any state outside the known set still gets exported.
	var extra []string
	for state := range st.Jobs {
		known := false
		for _, k := range states {
			if state == k {
				known = true
				break
			}
		}
		if !known {
			extra = append(extra, string(state))
		}
	}
	sort.Strings(extra)
	for _, state := range extra {
		fmt.Fprintf(&b, "hmcsim_jobs{state=%q} %d\n", state, st.Jobs[State(state)])
	}

	counter("hmcsim_cache_hits_total", "Result-cache hits.", float64(st.Cache.Hits))
	counter("hmcsim_cache_misses_total", "Result-cache misses.", float64(st.Cache.Misses))
	counter("hmcsim_cache_evictions_total", "Result-cache evictions.", float64(st.Cache.Evictions))
	gauge("hmcsim_cache_entries", "Result-cache entries resident.", float64(st.Cache.Entries))
	counter("hmcsim_batches_total", "POST /v1/batch submissions.", float64(st.Batches))
	counter("hmcsim_batch_specs_total", "Specs carried by batch submissions.", float64(st.BatchSpecs))

	fmt.Fprintf(&b, "# HELP hmcsim_worker_jobs_total Jobs completed per worker.\n# TYPE hmcsim_worker_jobs_total counter\n")
	for _, ws := range st.WorkerStats {
		fmt.Fprintf(&b, "hmcsim_worker_jobs_total{worker=\"%d\"} %d\n", ws.Worker, ws.Jobs)
	}
	fmt.Fprintf(&b, "# HELP hmcsim_worker_busy_seconds_total Wall time per worker spent running jobs.\n# TYPE hmcsim_worker_busy_seconds_total counter\n")
	for _, ws := range st.WorkerStats {
		fmt.Fprintf(&b, "hmcsim_worker_busy_seconds_total{worker=\"%d\"} %g\n", ws.Worker, ws.BusyMs/1000)
	}

	counter("hmcsim_sim_events_total", "Engine events retired across all jobs.", float64(st.SimEvents))
	counter("hmcsim_sim_time_seconds_total", "Simulated time advanced across all jobs.", st.SimTimeMs/1000)
	counter("hmcsim_sweep_points_total", "Sweep points completed across all jobs.", float64(st.SweepPoints))

	queueWait, latency, slow := s.flight.hists()
	histogram("hmcsim_job_queue_wait_ms", "Milliseconds jobs waited for a worker.", queueWait)
	histogram("hmcsim_job_latency_ms", "End-to-end job latency in milliseconds, admission to terminal.", latency)
	counter("hmcsim_jobs_slow_total", "Completed jobs past the slow-job threshold.", float64(slow))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String())) //nolint:errcheck // nothing to do for a gone client
}
