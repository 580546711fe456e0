// Package report holds what hmcbench and benchcmp share: the
// BENCHMARK.json schema, the JSON record of one benchmark run, and the
// order statistics both sides compute.
package report

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// SpecFile is the benchmark description at the repository root.
const SpecFile = "BENCHMARK.json"

// Spec is the part of BENCHMARK.json the benchmark's tools read.
type Spec struct {
	Workloads []WorkloadSpec `json:"workloads"`
	EndToEnd  []MetricSpec   `json:"end_to_end"`
	PerLayer  []MetricSpec   `json:"per_layer"`
}

// WorkloadSpec names one workload and why the benchmark runs it.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricSpec declares one metric. Bound, set only on end-to-end
// metrics, is the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type MetricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// Lower reports whether smaller values of the metric are better.
func (m MetricSpec) Lower() bool { return m.Better == "lower" }

// Metric looks a metric up by name in either list.
func (s *Spec) Metric(name string) (MetricSpec, bool) {
	for _, l := range [][]MetricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range l {
			if m.Name == name {
				return m, true
			}
		}
	}
	return MetricSpec{}, false
}

// LoadSpec reads and decodes BENCHMARK.json from the repository root.
func LoadSpec(root string) (*Spec, error) {
	blob, err := os.ReadFile(filepath.Join(root, SpecFile))
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", SpecFile, err)
	}
	return &s, nil
}

// FindRoot walks up from the working directory to the first directory
// holding both BENCHMARK.json and go.mod: the repository root, whether
// the benchmark runs from there or from a package directory under
// go test.
func FindRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isFile(filepath.Join(dir, SpecFile)) && isFile(filepath.Join(dir, "go.mod")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no directory above the working directory holds " + SpecFile + " and go.mod")
		}
		dir = parent
	}
}

func isFile(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.Mode().IsRegular()
}

// Run is the JSON record `hmcbench -json` writes: machine facts, the
// settings, and one entry per workload.
type Run struct {
	Meta      Meta       `json:"meta"`
	Workloads []Workload `json:"workloads"`
}

// Meta describes the machine, build and settings of a run. Two runs are
// comparable only when NumCPU, GOMAXPROCS and the Go version agree.
type Meta struct {
	NumCPU     int     `json:"numCPU"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	Revision   string  `json:"revision"`
	Dirty      bool    `json:"dirty"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

// Workload is one workload's outcome within a run.
type Workload struct {
	Name      string `json:"name"`
	Procs     int    `json:"procs"` // GOMAXPROCS while the workload ran
	Setups    int    `json:"setups"`
	Reps      int    `json:"reps"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Pin is "match", "mismatch" or "unpinned": whether the workload's
	// simulated statistics were checked against bench/testdata/pins.json.
	Pin string `json:"pin"`
	// Digest is the SHA-256 of the workload's simulated statistics, equal
	// across traced and untraced runs of one seed.
	Digest   string   `json:"digest"`
	Failures []string `json:"failures,omitempty"` // the first few
	Metrics  []Metric `json:"metrics"`
}

// Metric is one measured metric: its value (the median of its samples),
// the samples' quartiles, and their count.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// Median returns the median of xs (the mean of the middle two for an
// even count), 0 for none. xs is not modified.
func Median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quantile returns the p-quantile of xs by the exclusive method (the
// default of Python's statistics.quantiles): position p*(n+1) in the
// sorted sample, interpolated and clamped to the extreme values.
func Quantile(xs []float64, p float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return s[0]
	}
	pos := p * float64(n+1)
	j := math.Floor(pos)
	switch {
	case j < 1:
		return s[0]
	case j >= float64(n):
		return s[n-1]
	}
	i := int(j)
	return s[i-1] + (pos-j)*(s[i]-s[i-1])
}

// Quartiles returns the first and third quartiles of xs.
func Quartiles(xs []float64) (q1, q3 float64) {
	return Quantile(xs, 0.25), Quantile(xs, 0.75)
}

// Summarize builds a Metric from raw samples: the median with its
// quartiles.
func Summarize(name, unit string, xs []float64) Metric {
	q1, q3 := Quartiles(xs)
	return Metric{Name: name, Unit: unit, Value: Median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
