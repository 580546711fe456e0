package traffic

import (
	"math"
	"sync"
)

// generator is one compiled address source. Next returns the next byte
// address in [0, span), already aligned to the request size; it must
// not allocate, since a port calls it once per issued request.
type generator interface {
	Next() uint64
}

// --- uniform -------------------------------------------------------------

// uniformGen draws independent uniform addresses over the working set.
type uniformGen struct {
	rng   *RNG
	span  uint64
	align uint64
}

func (g *uniformGen) Next() uint64 { return g.rng.Uint64() % g.span &^ (g.align - 1) }

// --- stride / sequential -------------------------------------------------

// strideGen walks the working set with a fixed stride, wrapping at the
// end. A stride equal to the request size is the sequential scan.
type strideGen struct {
	cur    uint64
	stride uint64
	span   uint64
	align  uint64
}

func (g *strideGen) Next() uint64 {
	a := g.cur &^ (g.align - 1)
	g.cur += g.stride
	if g.cur >= g.span {
		g.cur -= g.span
	}
	return a
}

// --- hotspot -------------------------------------------------------------

// hotspotGen sends hotFrac of accesses to the hot prefix of the working
// set and the rest uniformly over the whole set.
type hotspotGen struct {
	rng     *RNG
	hotFrac float64
	hot     uint64
	span    uint64
	align   uint64
}

func (g *hotspotGen) Next() uint64 {
	span := g.span
	if g.rng.Float64() < g.hotFrac {
		span = g.hot
	}
	return g.rng.Uint64() % span &^ (g.align - 1)
}

// --- zipf ----------------------------------------------------------------

// zipfGen draws request-size blocks with zipfian popularity (rank 0 the
// hottest) using the rejection-free quantile method of Gray et al.
// ("Quickly generating billion-record synthetic databases", SIGMOD'94),
// the same sampler YCSB uses. With the cube's low-order interleaving,
// adjacent hot ranks spread across vaults, so raising theta narrows the
// active bank set exactly the way the paper's mask patterns do.
type zipfGen struct {
	rng   *RNG
	step  uint64 // block (request) size in bytes
	n     float64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	half  float64 // pow(0.5, theta), hoisted out of Next
}

func newZipf(rng *RNG, theta float64, blocks uint64, step uint64) *zipfGen {
	// theta == 1 makes alpha blow up; nudge it the way YCSB does.
	if math.Abs(theta-1) < 1e-6 {
		theta = 1 - 1e-6
	}
	n := float64(blocks)
	zetan := zeta(blocks, theta)
	zeta2 := 1 + math.Pow(0.5, theta)
	return &zipfGen{
		rng:   rng,
		step:  step,
		n:     n,
		theta: theta,
		alpha: 1 / (1 - theta),
		zetan: zetan,
		eta:   (1 - math.Pow(2/n, 1-theta)) / (1 - zeta2/zetan),
		half:  math.Pow(0.5, theta),
	}
}

func (g *zipfGen) Next() uint64 {
	u := g.rng.Float64()
	uz := u * g.zetan
	var rank uint64
	switch {
	case uz < 1:
		rank = 0
	case uz < 1+g.half:
		rank = 1
	default:
		rank = uint64(g.n * math.Pow(g.eta*u-g.eta+1, g.alpha))
		if rank >= uint64(g.n) {
			rank = uint64(g.n) - 1
		}
	}
	return rank * g.step
}

// zetaCache memoizes the generalized harmonic sums: every port of every
// sweep point with the same (blocks, theta) shares one O(n) weighing.
// The value is a pure function of the key, so caching cannot perturb
// determinism.
var zetaCache sync.Map // [2]float64{blocks, theta} -> float64

// zeta returns the generalized harmonic number H_{n,theta}.
func zeta(n uint64, theta float64) float64 {
	key := [2]float64{float64(n), theta}
	if v, ok := zetaCache.Load(key); ok {
		return v.(float64)
	}
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	zetaCache.Store(key, sum)
	return sum
}

// --- pointer chase -------------------------------------------------------

// chaseGen is the pointer-chase random walk: a single-cycle random
// permutation over n request-size nodes, built with Sattolo's algorithm
// so the walk provably visits every node exactly once per n steps. Each
// Next is one dependent "pointer dereference" — the address stream has
// no spatial locality and maximal serialization, the access shape of
// linked-list traversal and of mean-first-passage random walks.
type chaseGen struct {
	next []uint32
	cur  uint32
	step uint64
}

func newChase(rng *RNG, nodes int, step uint64) *chaseGen {
	perm := make([]uint32, nodes)
	for i := range perm {
		perm[i] = uint32(i)
	}
	// Sattolo's variant of Fisher-Yates (j strictly below i) yields a
	// uniformly random permutation with exactly one cycle.
	for i := nodes - 1; i > 0; i-- {
		j := rng.Intn(i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return &chaseGen{next: perm, step: step}
}

func (g *chaseGen) Next() uint64 {
	a := uint64(g.cur) * g.step
	g.cur = g.next[g.cur]
	return a
}

// --- read/write mixer ----------------------------------------------------

// mixer decides each request's direction. A write fraction of 0 or 1
// fixes the direction without a draw, and GUPS's alternate mode
// interleaves reads and writes, read first. Otherwise, with a run
// length it is a two-state markov chain whose stationary write fraction
// matches the spec; without one it draws directions independently.
type mixer struct {
	rng       *RNG
	writeFrac float64
	alternate bool
	markov    bool
	pLeaveW   float64 // P(write -> read)
	pLeaveR   float64 // P(read -> write)
	write     bool
	primed    bool
}

func newMixer(rng *RNG, writeFrac float64, runLength int) mixer {
	m := mixer{rng: rng, writeFrac: writeFrac}
	if runLength > 1 && writeFrac > 0 && writeFrac < 1 {
		// Mean write-run length L fixes P(write->read) = 1/L; the
		// read-side leave rate then makes the stationary distribution hit
		// writeFrac, clamped to a valid probability for extreme mixes.
		m.markov = true
		m.pLeaveW = 1 / float64(runLength)
		m.pLeaveR = m.pLeaveW * writeFrac / (1 - writeFrac)
		if m.pLeaveR > 1 {
			m.pLeaveR = 1
		}
	}
	return m
}

// next returns true when the next request is a write.
func (m *mixer) next() bool {
	switch {
	case m.alternate:
		w := m.write
		m.write = !w
		return w
	case m.writeFrac == 0:
		return false
	case m.writeFrac == 1:
		return true
	case !m.markov:
		return m.rng.Float64() < m.writeFrac
	}
	if !m.primed {
		m.primed = true
		m.write = m.rng.Float64() < m.writeFrac
		return m.write
	}
	if m.write {
		if m.rng.Float64() < m.pLeaveW {
			m.write = false
		}
	} else if m.rng.Float64() < m.pLeaveR {
		m.write = true
	}
	return m.write
}
