package main

import (
	"hmcsim/internal/exp"
)

// metricDef names a metric and its unit. BENCHMARK.json declares the
// same names and units, and the smoke test keeps the two equal.
type metricDef struct{ name, unit string }

// perLayerFixed are the per-layer metrics of a traced run, in print
// order. A workload that does not reach a layer reports 0 for it. The
// client metrics describe the untraced half's closed loop in raw host
// time: its median and 90th-percentile rep, median CPU per rep,
// throughput, and how much slower than its reference time the host-speed
// probe ran (the factor the end-to-end times are scaled by).
var perLayerFixed = []metricDef{
	{"client.rep_p50_s", "s"},
	{"client.rep_p90_s", "s"},
	{"client.rep_cpu_s", "s"},
	{"client.reps_per_s", "1/s"},
	{"client.host_slowdown", "ratio"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.us_per_s", "us/s"},
	{"sim.schedule_fire_ns", "ns"},
	{"sim.schedule_fire_allocs", "count"},
	{"core.new_system_ms", "ms"},
	{"core.run_ms", "ms"},
	{"host.requests", "count"},
	{"host.ctrl_util", "ratio"},
	{"host.tag_waits", "count"},
	{"host.outstanding_mean", "count"},
	{"host.open_loop_shortfall", "ratio"},
	{"link.req_util", "ratio"},
	{"link.resp_util", "ratio"},
	{"link.flits", "count"},
	{"link.retries", "count"},
	{"link.send_ns", "ns"},
	{"noc.hops", "count"},
	{"noc.credit_stalls", "count"},
	{"noc.queue_mean", "count"},
	{"noc.hop_ns", "ns"},
	{"vault.accepts", "count"},
	{"vault.rejects", "count"},
	{"vault.occupancy_mean", "count"},
	{"vault.tsv_util", "ratio"},
	{"vault.accept_respond_ns", "ns"},
	{"dram.accesses", "count"},
	{"dram.row_hits", "count"},
	{"dram.refreshes", "count"},
	{"dram.access_ns", "ns"},
	{"traffic.next_ns", "ns"},
	{"traffic.next_allocs", "count"},
	{"model.gbps", "GB/s"},
	{"model.lat_avg_ns", "ns"},
	{"model.paper_err_pct", "%"},
	{"hmcsim.sweep_util", "ratio"},
	{"hmcsim.result_marshal_us", "us"},
	{"hmcsim.spec_key_us", "us"},
	{"service.request_p50_ms", "ms"},
	{"service.request_p99_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.marshal_ms", "ms"},
	{"service.http_overhead_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.inflight_peak", "count"},
	{"obs.overhead_pct", "%"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.allocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
}

// perLayer returns every per-layer metric: the fixed list plus the host
// time of each registered experiment runner.
func perLayer() []metricDef {
	defs := append([]metricDef(nil), perLayerFixed...)
	for _, name := range exp.Names() {
		defs = append(defs, metricDef{runnerMetric(name), "s"})
	}
	return defs
}

// runnerMetric names the per-layer metric holding a runner's host time.
func runnerMetric(name string) string { return "exp." + name + "_s" }

// spanMetrics maps the span names that measure a layer's host time to
// the metric holding their median self time, and the factor from
// seconds to that metric's unit. Runner spans are added by name.
var spanMetrics = map[string]struct {
	metric string
	scale  float64
}{
	"core.NewSystem":     {"core.new_system_ms", 1e3},
	"core.RunGUPS":       {"core.run_ms", 1e3},
	"core.RunTraffic":    {"core.run_ms", 1e3},
	"hmcsim.Result.JSON": {"hmcsim.result_marshal_us", 1e6},
	"hmcsim.Spec.Key":    {"hmcsim.spec_key_us", 1e6},
}
