package traffic

import (
	"fmt"
	"math/bits"

	"hmcsim/internal/addr"
	"hmcsim/internal/sim"
)

// Parameter defaults, applied at compile time so the spec's zero value
// stays canonical (and therefore cache-key stable).
const (
	defaultZipfTheta   = 0.99
	defaultHotFraction = 0.9
	defaultHotSet      = 1 << 20 // 1 MiB
	defaultStride      = 4096
	defaultChaseNodes  = 4096
	defaultZipfSet     = 16 << 20 // 16 MiB keeps the zeta weighing cheap
	// maxZipfBlocks bounds the O(n) harmonic weighing of the zipf
	// sampler (~1e7 pow calls at the bound, amortized by zetaCache).
	maxZipfBlocks = 1 << 24
)

// PhaseInfo is one resolved step of a compiled traffic script: how long
// the phase lasts, the open-loop rate in force (0 for closed-loop), and
// whether the port is silent.
type PhaseInfo struct {
	Duration sim.Time
	RateGBps float64
	Off      bool
}

// Gen is the runtime form of a Spec: an address generator, a read/write
// mixer, and a resolved phase script, all fed by sub-streams split from
// one splitmix64 seed. GUPS builds one on the GUPS firmware's law
// instead. Next is allocation-free; a host port calls it once per
// issued request.
type Gen struct {
	closed    bool
	baseRate  float64
	base      generator
	phasePats []generator // per phase; nil entries use base
	phases    []PhaseInfo
	active    generator
	mix       mixer
}

// Compile validates and compiles a spec for the given request size and
// seed. Identical (spec, size, seed) triples compile to generators that
// replay identical request streams.
func Compile(spec Spec, size int, seed uint64) (*Gen, error) {
	if err := spec.ValidateFor(size); err != nil {
		return nil, err
	}
	root := NewRNG(seed)
	// Sub-stream split order is part of the replay contract: base
	// pattern, then mixer, then phase patterns in script order.
	patRNG := root.Split()
	mixRNG := root.Split()

	g := &Gen{
		closed:   spec.Closed(),
		baseRate: spec.RateGBps,
		mix:      newMixer(mixRNG, spec.WriteFraction, spec.MixRunLength),
	}
	var err error
	if g.base, err = compilePattern(spec, spec.Pattern, size, patRNG); err != nil {
		return nil, err
	}
	g.active = g.base

	g.phasePats = make([]generator, len(spec.Phases))
	g.phases = make([]PhaseInfo, len(spec.Phases))
	for i, p := range spec.Phases {
		info := PhaseInfo{
			Duration: sim.Time(p.DurationUs * float64(sim.Microsecond)),
			RateGBps: p.RateGBps,
			Off:      p.Off,
		}
		if info.RateGBps == 0 {
			info.RateGBps = spec.RateGBps
		}
		if g.closed || info.Off {
			info.RateGBps = 0
		}
		g.phases[i] = info
		if p.Pattern != "" && p.Pattern != spec.Pattern {
			if g.phasePats[i], err = compilePattern(spec, p.Pattern, size, root.Split()); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// resolve computes the effective working-set span for one named
// pattern and checks the cross-field constraints that depend on it
// (stride below the span, hot set within it, zipf rank table within
// its bound, chase table within the span). ValidateFor and
// compilePattern share it, so validation and compilation cannot
// disagree about what runs.
func (s Spec) resolve(name string, size int) (span uint64, err error) {
	if !validPattern(name) {
		return 0, &UnknownPatternError{Name: name}
	}
	span = s.WorkingSetBytes
	if span == 0 {
		span = addr.CubeBytes
		if name == PatternZipf {
			span = defaultZipfSet
		}
	}
	step := uint64(size)
	switch name {
	case PatternStride:
		stride := uint64(s.StrideBytes)
		if stride == 0 {
			stride = defaultStride
		}
		if stride >= span {
			return 0, fmt.Errorf("traffic: stride %d must be below the %d-byte working set", stride, span)
		}
	case PatternHotspot:
		hot := s.HotSetBytes
		if hot == 0 {
			hot = defaultHotSet
		}
		if hot > span {
			return 0, fmt.Errorf("traffic: hot set %d exceeds the %d-byte working set", hot, span)
		}
		if hot < step {
			return 0, fmt.Errorf("traffic: hot set %d smaller than one %d-byte request", hot, size)
		}
	case PatternZipf:
		blocks := span / step
		if blocks < 2 {
			return 0, fmt.Errorf("traffic: zipf working set %d holds fewer than two %d-byte blocks", span, size)
		}
		if blocks > maxZipfBlocks {
			return 0, fmt.Errorf("traffic: zipf working set %d is %d blocks, above the %d bound; shrink workingSetBytes", span, blocks, maxZipfBlocks)
		}
	case PatternChase:
		nodes := s.ChaseNodes
		if nodes == 0 {
			nodes = defaultChaseNodes
		}
		if uint64(nodes)*step > span {
			return 0, fmt.Errorf("traffic: %d chase nodes of %d bytes exceed the %d-byte working set", nodes, size, span)
		}
	}
	return span, nil
}

// compilePattern builds one named address source, applying the spec's
// parameter defaults.
func compilePattern(spec Spec, name string, size int, rng *RNG) (generator, error) {
	span, err := spec.resolve(name, size)
	if err != nil {
		return nil, err
	}
	// Align addresses the way GUPS does: to the largest power of two
	// not exceeding the request size (equal to it for the standard
	// 16/32/64/128 sizes).
	align := uint64(1) << (bits.Len(uint(size)) - 1)
	step := uint64(size)
	switch name {
	case "", PatternUniform:
		return &uniformGen{rng: rng, span: span, align: align}, nil
	case PatternSequential:
		return &strideGen{stride: step, span: span, align: align}, nil
	case PatternStride:
		stride := uint64(spec.StrideBytes)
		if stride == 0 {
			stride = defaultStride
		}
		return &strideGen{stride: stride, span: span, align: align}, nil
	case PatternHotspot:
		frac := spec.HotFraction
		if frac == 0 {
			frac = defaultHotFraction
		}
		hot := spec.HotSetBytes
		if hot == 0 {
			hot = defaultHotSet
		}
		return &hotspotGen{rng: rng, hotFrac: frac, hot: hot, span: span, align: align}, nil
	case PatternZipf:
		theta := spec.ZipfTheta
		if theta == 0 {
			theta = defaultZipfTheta
		}
		return newZipf(rng, theta, span/step, step), nil
	case PatternChase:
		nodes := spec.ChaseNodes
		if nodes == 0 {
			nodes = defaultChaseNodes
		}
		return newChase(rng, nodes, step), nil
	}
	return nil, &UnknownPatternError{Name: name}
}

// Next returns the next request: a size-aligned byte address and its
// direction. It never allocates.
func (g *Gen) Next() (a uint64, write bool) {
	return g.active.Next(), g.mix.next()
}

// Closed reports whether the injection discipline is closed-loop.
func (g *Gen) Closed() bool { return g.closed }

// RateGBps returns the base open-loop target (0 for closed-loop).
func (g *Gen) RateGBps() float64 {
	if g.closed {
		return 0
	}
	return g.baseRate
}

// Phases returns the resolved phase script; empty means the base
// pattern runs forever.
func (g *Gen) Phases() []PhaseInfo { return g.phases }

// UsePhase hands the address stream to phase i's pattern (the base
// pattern when the phase did not name one). Ports call it at each
// phase boundary; the script repeats, so i wraps modulo len(Phases).
func (g *Gen) UsePhase(i int) {
	if len(g.phases) == 0 {
		return
	}
	i %= len(g.phases)
	if p := g.phasePats[i]; p != nil {
		g.active = p
	} else {
		g.active = g.base
	}
}
