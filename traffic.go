package hmcsim

import "hmcsim/internal/traffic"

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
