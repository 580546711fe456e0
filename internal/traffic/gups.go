package traffic

import (
	"hmcsim/internal/addr"
	"hmcsim/internal/sim"
)

// RequestKind selects the directions a GUPS generator issues.
type RequestKind int

const (
	// ReadOnly issues only reads; the paper's default ("the type of
	// requests are read only, unless stated otherwise").
	ReadOnly RequestKind = iota
	// WriteOnly issues only writes.
	WriteOnly
	// ReadWriteMix alternates reads and writes evenly, read first: the
	// balanced traffic Section IV-F recommends for bi-directional links.
	ReadWriteMix
)

// GUPS compiles the address law of the paper's GUPS firmware (Figure
// 5a) into a closed-loop generator with no phases. Each request draws
// one value from a sim.Rand seeded with seed or, when linear, takes a
// cursor that starts at 0 and steps by size; the value is cut to the
// cube, confined by mask and aligned down to size. kind fixes the
// directions without a draw.
//
// No Spec names this law. Its stream is sim.Rand's, not a splitmix64
// sub-stream split from the Spec seed, and its mask is a structural
// subset of one address mapping (vaults, banks), which a Spec cannot
// state. The GUPS runs, core.System.RandomTrace and hmcsim.TraceSpec
// build it directly.
func GUPS(mask addr.Mask, size int, seed uint64, linear bool, kind RequestKind) *Gen {
	a := &gupsGen{mask: mask, size: uint64(size), linear: linear, rng: sim.NewRand(seed)}
	g := &Gen{closed: true, base: a, active: a}
	switch kind {
	case WriteOnly:
		g.mix.writeFrac = 1
	case ReadWriteMix:
		g.mix.alternate = true
	}
	return g
}

// gupsGen is the GUPS firmware's address source.
type gupsGen struct {
	rng    *sim.Rand
	mask   addr.Mask
	size   uint64
	linear bool
	next   uint64 // linear-mode cursor
}

func (g *gupsGen) Next() uint64 {
	var raw uint64
	if g.linear {
		raw = g.next
		g.next += g.size
	} else {
		raw = g.rng.Uint64()
	}
	return g.mask.Apply(raw&(addr.CubeBytes-1)) &^ (g.size - 1)
}
