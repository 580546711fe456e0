// Package traffic is the composable synthetic traffic-generation
// subsystem: a library of named address patterns (uniform random,
// strided, sequential scan, hotspot, zipfian, pointer-chase random
// walk), a markov read/write mixer, phase scripting (on/off bursts,
// ramps, pattern handoffs), and two injection disciplines — closed-loop
// (bounded outstanding requests, like the paper's GUPS firmware) and
// open-loop (a target GB/s fed by a token bucket).
//
// A Spec is the declarative, JSON-serializable form; Compile turns it
// into a Gen, the allocation-free runtime generator a host traffic port
// drives one request at a time. Everything is derived from one seeded
// splitmix64 stream, so a (spec, seed) pair replays byte-identically —
// which is what lets the hmcsimd service cache traffic experiments
// under the same content-addressed Spec key as the paper figures.
//
// GUPS compiles the one law no Spec names: the paper's GUPS firmware,
// masked random or linear addresses from a sim.Rand with fixed
// directions. A host traffic port on it is the GUPS port of Figure 5a;
// see GUPS for why the law stays outside the Spec library.
package traffic

import (
	"fmt"
	"strings"

	"hmcsim/internal/addr"
)

// Pattern names accepted by Spec.Pattern and Phase.Pattern.
const (
	PatternUniform    = "uniform"    // independent uniform random addresses
	PatternStride     = "stride"     // fixed-stride walk (StrideBytes)
	PatternSequential = "sequential" // linear scan, one request size per step
	PatternHotspot    = "hotspot"    // HotFraction of accesses land in the first HotSetBytes
	PatternZipf       = "zipf"       // zipfian over request-size blocks, skew ZipfTheta
	PatternChase      = "chase"      // pointer-chase random walk over a ChaseNodes-node cycle
)

// Disciplines accepted by Spec.Discipline.
const (
	DisciplineClosed = "closed" // issue every cycle while an outstanding-request tag is free
	DisciplineOpen   = "open"   // issue at RateGBps via a token bucket, still tag-bounded
)

// patternNames is the single source of truth for the library;
// PatternNames, validPattern, and the compile-everything test all
// derive from it, so the name list cannot drift between validation and
// compilation.
var patternNames = []string{
	PatternUniform, PatternStride, PatternSequential,
	PatternHotspot, PatternZipf, PatternChase,
}

var patternSet = func() map[string]bool {
	m := make(map[string]bool, len(patternNames))
	for _, n := range patternNames {
		m[n] = true
	}
	return m
}()

// PatternNames returns the valid pattern names in documentation order.
func PatternNames() []string {
	out := make([]string, len(patternNames))
	copy(out, patternNames)
	return out
}

// UnknownPatternError reports a pattern name that is not in the
// library, listing the valid names so the CLI, Spec validation, and the
// daemon's HTTP 400 all give the same actionable message.
type UnknownPatternError struct {
	Name string
}

func (e *UnknownPatternError) Error() string {
	return fmt.Sprintf("traffic: unknown pattern %q (valid patterns: %s)",
		e.Name, strings.Join(PatternNames(), ", "))
}

// validPattern reports whether name is in the library ("" means the
// uniform default).
func validPattern(name string) bool {
	return name == "" || patternSet[name]
}

// Spec declares one port's synthetic traffic. The zero value is
// uniform random read-only closed-loop traffic over the whole cube —
// the paper's default GUPS personality.
type Spec struct {
	// Pattern names the address source; "" defaults to "uniform".
	Pattern string `json:"pattern,omitempty"`

	// WorkingSetBytes bounds generated addresses to [0, n). 0 means the
	// pattern default: the whole cube, except zipf which defaults to
	// 16 MiB so its rank table stays cheap to weigh.
	WorkingSetBytes uint64 `json:"workingSetBytes,omitempty"`
	// StrideBytes is the stride pattern's step; 0 means 4096 (one OS
	// page, the classic worst case for low-order interleaving).
	StrideBytes int `json:"strideBytes,omitempty"`
	// HotFraction is the probability a hotspot access lands in the hot
	// set; 0 means 0.9.
	HotFraction float64 `json:"hotFraction,omitempty"`
	// HotSetBytes sizes the hotspot pattern's hot region; 0 means 1 MiB.
	HotSetBytes uint64 `json:"hotSetBytes,omitempty"`
	// ZipfTheta is the zipf skew in (0, 2): larger is more
	// concentrated, and 0 (the zero value) means the YCSB default of
	// 0.99. For near-uniform traffic pass a small explicit value such
	// as 0.01 — or just use the uniform pattern.
	ZipfTheta float64 `json:"zipfTheta,omitempty"`
	// ChaseNodes is the pointer-chase cycle length; 0 means 4096.
	ChaseNodes int `json:"chaseNodes,omitempty"`

	// WriteFraction is the long-run fraction of writes in [0, 1];
	// 0 means read-only, the paper's default.
	WriteFraction float64 `json:"writeFraction,omitempty"`
	// MixRunLength makes the read/write mix a two-state markov chain
	// with mean write-run length n (reads dilate to keep WriteFraction);
	// 0 or 1 draws each direction independently.
	MixRunLength int `json:"mixRunLength,omitempty"`

	// Discipline selects the injection law; "" defaults to "closed".
	Discipline string `json:"discipline,omitempty"`
	// RateGBps is the open-loop per-port target bandwidth (counted as
	// request payload bytes issued per second).
	RateGBps float64 `json:"rateGBps,omitempty"`

	// Phases, when non-empty, script the generator through a repeating
	// sequence of timed phases: on/off bursts, rate ramps, and pattern
	// handoffs. An empty list runs the base pattern forever.
	Phases []Phase `json:"phases,omitempty"`
}

// Phase is one step of a traffic script. Fields left zero inherit the
// spec's base pattern and rate, so a two-phase {on, off} burst or a
// rate ramp only states what changes.
type Phase struct {
	// Pattern hands the address stream off to another library pattern
	// for this phase; "" keeps the spec's base pattern.
	Pattern string `json:"pattern,omitempty"`
	// DurationUs is the phase length in simulated microseconds.
	DurationUs float64 `json:"durationUs"`
	// RateGBps overrides the open-loop target for this phase; 0 keeps
	// the spec's base rate.
	RateGBps float64 `json:"rateGBps,omitempty"`
	// Off silences the port for the phase (the off half of a burst).
	Off bool `json:"off,omitempty"`
}

// Phase lengths are bounded in simulated microseconds. A phase shorter
// than a nanosecond can round to no time, and a long enough one
// overflows sim.Time; either would re-arm the phase clock at the same
// instant forever. 1,000 s is far past any run and keeps the end of
// every phase well inside sim.Time.
const (
	minPhaseUs = 0.001
	maxPhaseUs = 1e9
)

// maxChaseNodes bounds the pointer-chase table (16 M nodes = 64 MiB of
// uint32 links — per port, so a max-size multi-port job still costs
// hundreds of MiB) so a hostile spec cannot balloon daemon memory.
const maxChaseNodes = 1 << 24

// Validate checks the spec for the standard 128-byte request size the
// registered traffic experiments use. The CLI, hmcsim.Spec validation,
// and the hmcsimd submit path all call it, so an unknown pattern or an
// uncompilable parameter combination is rejected with the same helpful
// error everywhere instead of surfacing later as a run-time panic.
func (s Spec) Validate() error { return s.ValidateFor(128) }

// ValidateFor checks the spec against the pattern library, parameter
// ranges, and the cross-field constraints compilation enforces for the
// given request size: everything ValidateFor accepts is guaranteed to
// Compile at that size.
func (s Spec) ValidateFor(size int) error {
	if size <= 0 || size%16 != 0 || size > 128 {
		return fmt.Errorf("traffic: request size %d must be a multiple of 16 in [16, 128]", size)
	}
	if !validPattern(s.Pattern) {
		return &UnknownPatternError{Name: s.Pattern}
	}
	if s.WorkingSetBytes > addr.CubeBytes {
		return fmt.Errorf("traffic: working set %d exceeds the %d-byte cube", s.WorkingSetBytes, uint64(addr.CubeBytes))
	}
	if s.WorkingSetBytes != 0 && s.WorkingSetBytes < 4096 {
		return fmt.Errorf("traffic: working set %d below the 4096-byte minimum", s.WorkingSetBytes)
	}
	if s.StrideBytes < 0 || s.StrideBytes%16 != 0 {
		return fmt.Errorf("traffic: stride %d must be a non-negative multiple of 16", s.StrideBytes)
	}
	if s.HotFraction < 0 || s.HotFraction > 1 {
		return fmt.Errorf("traffic: hot fraction %g outside [0, 1]", s.HotFraction)
	}
	if s.HotSetBytes > addr.CubeBytes {
		return fmt.Errorf("traffic: hot set %d exceeds the %d-byte cube", s.HotSetBytes, uint64(addr.CubeBytes))
	}
	if s.ZipfTheta < 0 || s.ZipfTheta >= 2 {
		return fmt.Errorf("traffic: zipf theta %g outside [0, 2)", s.ZipfTheta)
	}
	if s.ChaseNodes < 0 || s.ChaseNodes == 1 || s.ChaseNodes > maxChaseNodes {
		return fmt.Errorf("traffic: chase nodes %d must be 0 (default) or in [2, %d]", s.ChaseNodes, maxChaseNodes)
	}
	if s.WriteFraction < 0 || s.WriteFraction > 1 {
		return fmt.Errorf("traffic: write fraction %g outside [0, 1]", s.WriteFraction)
	}
	if s.MixRunLength < 0 {
		return fmt.Errorf("traffic: mix run length %d must be non-negative", s.MixRunLength)
	}
	// The markov chain's read-side leave rate is pLeaveW * w/(1-w); past
	// w = L/(L+1) it would exceed 1 and the stationary write fraction
	// could no longer match the spec, so reject the combination rather
	// than silently distort the mix. w = 1 is exempt: pure-write traffic
	// never engages the chain.
	if s.MixRunLength > 1 && s.WriteFraction < 1 && s.WriteFraction > float64(s.MixRunLength)/float64(s.MixRunLength+1) {
		return fmt.Errorf("traffic: mix run length %d cannot sustain write fraction %g (max %g); raise the run length or lower the fraction",
			s.MixRunLength, s.WriteFraction, float64(s.MixRunLength)/float64(s.MixRunLength+1))
	}
	switch s.Discipline {
	case "", DisciplineClosed:
		if s.RateGBps != 0 {
			return fmt.Errorf("traffic: rateGBps is open-loop only; set discipline to %q", DisciplineOpen)
		}
	case DisciplineOpen:
		if s.RateGBps <= 0 && !s.phasesCarryRate() {
			return fmt.Errorf("traffic: open-loop discipline needs rateGBps > 0 (on the spec or on every active phase)")
		}
	default:
		return fmt.Errorf("traffic: unknown discipline %q (valid: %s, %s)", s.Discipline, DisciplineClosed, DisciplineOpen)
	}
	if s.RateGBps < 0 || s.RateGBps > 1000 {
		return fmt.Errorf("traffic: rate %g GB/s outside (0, 1000]", s.RateGBps)
	}
	for i, p := range s.Phases {
		if !validPattern(p.Pattern) {
			return &UnknownPatternError{Name: p.Pattern}
		}
		if !(p.DurationUs >= minPhaseUs && p.DurationUs <= maxPhaseUs) {
			return fmt.Errorf("traffic: phase %d duration %g us outside [%g, %g]", i, p.DurationUs, minPhaseUs, maxPhaseUs)
		}
		if p.RateGBps != 0 && s.Closed() {
			return fmt.Errorf("traffic: phase %d rateGBps is open-loop only; set discipline to %q", i, DisciplineOpen)
		}
		if p.RateGBps < 0 || p.RateGBps > 1000 {
			return fmt.Errorf("traffic: phase %d rate %g GB/s outside [0, 1000]", i, p.RateGBps)
		}
	}
	// Resolve every pattern the spec can reach (base plus phase
	// handoffs) against the request size, so cross-field violations —
	// stride beyond the working set, an oversized hot set, a zipf rank
	// table past its bound, a chase table past the working set — fail
	// here, with the same checks compilation applies.
	if _, err := s.resolve(s.Pattern, size); err != nil {
		return err
	}
	for _, p := range s.Phases {
		if p.Pattern != "" {
			if _, err := s.resolve(p.Pattern, size); err != nil {
				return err
			}
		}
	}
	return nil
}

// phasesCarryRate reports whether every non-off phase states its own
// open-loop rate, making a base RateGBps unnecessary.
func (s Spec) phasesCarryRate() bool {
	if len(s.Phases) == 0 {
		return false
	}
	for _, p := range s.Phases {
		if !p.Off && p.RateGBps <= 0 {
			return false
		}
	}
	return true
}

// Closed reports whether the spec uses the closed-loop discipline.
func (s Spec) Closed() bool { return s.Discipline != DisciplineOpen }

// Name returns a compact human label for the spec, used as the default
// workload name: pattern, discipline, and the salient parameter.
func (s Spec) Name() string {
	pat := s.Pattern
	if pat == "" {
		pat = PatternUniform
	}
	var b strings.Builder
	b.WriteString(pat)
	switch pat {
	case PatternZipf:
		theta := s.ZipfTheta
		if theta == 0 {
			theta = defaultZipfTheta
		}
		fmt.Fprintf(&b, "(%.2f)", theta)
	case PatternHotspot:
		frac := s.HotFraction
		if frac == 0 {
			frac = defaultHotFraction
		}
		fmt.Fprintf(&b, "(%.0f%%)", frac*100)
	}
	if !s.Closed() {
		if s.RateGBps > 0 {
			fmt.Fprintf(&b, "/open%.2gGBps", s.RateGBps)
		} else {
			// Phase-rated specs have no single base rate to print.
			b.WriteString("/open")
		}
	}
	if s.WriteFraction > 0 {
		fmt.Fprintf(&b, "/wr%.2f", s.WriteFraction)
	}
	if len(s.Phases) > 0 {
		fmt.Fprintf(&b, "/%dphases", len(s.Phases))
	}
	return b.String()
}
