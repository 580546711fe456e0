package hmcsim

import (
	"fmt"

	"hmcsim/internal/core"
	"hmcsim/internal/traffic"
)

// TrafficSpec declares synthetic traffic for one port: a named address
// pattern (uniform, stride, sequential, hotspot, zipf, chase), a
// read/write mix, an injection discipline (closed-loop outstanding
// bound or open-loop GB/s token bucket), and an optional phase script.
// The zero value is uniform random read-only closed-loop traffic — the
// paper's GUPS personality. It is JSON-serializable and rides inside
// Options, so traffic experiments are content-addressable by Spec.Key
// and servable by hmcsimd like every paper figure.
type TrafficSpec = traffic.Spec

// TrafficPhase is one step of a traffic phase script: a duration plus
// optional pattern handoff, rate override, or silence.
type TrafficPhase = traffic.Phase

// Traffic pattern and discipline names, re-exported for callers that
// build specs programmatically.
const (
	TrafficUniform    = traffic.PatternUniform
	TrafficStride     = traffic.PatternStride
	TrafficSequential = traffic.PatternSequential
	TrafficHotspot    = traffic.PatternHotspot
	TrafficZipf       = traffic.PatternZipf
	TrafficChase      = traffic.PatternChase

	TrafficClosedLoop = traffic.DisciplineClosed
	TrafficOpenLoop   = traffic.DisciplineOpen
)

// TrafficPatterns returns the valid pattern names; unknown names are
// rejected (with this list in the error) by TrafficSpec.Validate,
// which the CLI, Spec validation, and the hmcsimd submit path share.
func TrafficPatterns() []string { return traffic.PatternNames() }

// TrafficWorkload drives Ports synthetic-traffic ports against a
// System and reports what the monitors saw, beside GUPS and Streams.
// Validate rejects bad specs up front; Run panics on an invalid spec
// (its Measurement has no error return, like GUPS.Run's), so callers
// accepting untrusted specs must Validate first — the CLI and the
// daemon both do.
type TrafficWorkload struct {
	Label   string
	Traffic TrafficSpec
	Ports   int
	Size    int
	Warmup  Time
	Window  Time
}

// Name identifies the workload configuration.
func (w TrafficWorkload) Name() string {
	if w.Label != "" {
		return w.Label
	}
	return fmt.Sprintf("traffic/%s/%dB/%dports", w.Traffic.Name(), w.Size, w.Ports)
}

// Validate checks the traffic spec against the pattern library and the
// workload's request size; everything it accepts is guaranteed to
// compile, so Run cannot panic after a successful Validate.
func (w TrafficWorkload) Validate() error { return w.Traffic.ValidateFor(w.Size) }

// Run performs the measurement on a fresh set of ports.
func (w TrafficWorkload) Run(sys *System) Measurement {
	r, err := sys.RunTraffic(core.TrafficRunSpec{
		Ports:   w.Ports,
		Size:    w.Size,
		Traffic: w.Traffic,
		Warmup:  w.Warmup,
		Window:  w.Window,
	})
	if err != nil {
		panic(fmt.Sprintf("hmcsim: invalid traffic workload: %v", err))
	}
	m := fromCore(r)
	m.Label = w.Name()
	return m
}
