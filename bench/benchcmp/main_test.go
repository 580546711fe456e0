package main

import (
	"testing"

	"hmcsim/bench/internal/report"
)

func TestVerdict(t *testing.T) {
	bound := 0.1
	lower := report.MetricSpec{Name: "rep_s", Better: "lower", Bound: &bound}
	layer := report.MetricSpec{Name: "core.run_ms", Better: "lower"}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		ms       report.MetricSpec
		old, new []float64
		want     string
	}{
		{"faster on every pair", lower, base, scale(base, 0.9), "better"},
		{"unchanged", lower, base, base, "same"},
		{"within the bound", lower, base, scale(base, 1.05), "same"},
		{"beyond the bound", lower, base, scale(base, 1.2), "worse"},
		{"spread wider than the bound", lower, base, []float64{80, 120, 100, 70, 130, 100, 90, 110, 60, 140}, "unresolved"},
		{"per-layer slower on every pair", layer, base, scale(base, 1.2), "worse"},
		{"per-layer within noise", layer, base, []float64{101, 100, 100, 99, 101, 100, 98, 102, 100, 99}, "same"},
	} {
		if got := verdict(key{"w", tc.ms.Name}, tc.ms, tc.old, tc.new).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
