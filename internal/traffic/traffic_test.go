package traffic

import (
	"math"
	"strings"
	"testing"

	"hmcsim/internal/addr"
	"hmcsim/internal/sim"
)

// TestSplitMix64KnownVectors pins the RNG to the reference splitmix64
// stream (seed 0), so a refactor cannot silently change every seeded
// traffic run.
func TestSplitMix64KnownVectors(t *testing.T) {
	want := []uint64{0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F}
	r := NewRNG(0)
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("splitmix64(seed 0) output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(42)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided on %d of 64 draws", same)
	}
}

func TestValidateUnknownPatternListsLibrary(t *testing.T) {
	err := Spec{Pattern: "zipfian"}.Validate()
	if err == nil {
		t.Fatal("unknown pattern accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"zipfian"`) {
		t.Errorf("error %q does not name the bad pattern", msg)
	}
	for _, name := range PatternNames() {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list valid pattern %q", msg, name)
		}
	}
	// Phase patterns are validated with the same error.
	err = Spec{Phases: []Phase{{Pattern: "nope", DurationUs: 1}}}.Validate()
	if err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("phase pattern validation: %v", err)
	}
}

func TestValidateRejectsBadParameters(t *testing.T) {
	cases := map[string]Spec{
		"negative stride":      {Pattern: PatternStride, StrideBytes: -16},
		"unaligned stride":     {Pattern: PatternStride, StrideBytes: 100},
		"hot fraction > 1":     {Pattern: PatternHotspot, HotFraction: 1.5},
		"theta >= 2":           {Pattern: PatternZipf, ZipfTheta: 2},
		"one chase node":       {Pattern: PatternChase, ChaseNodes: 1},
		"write fraction > 1":   {WriteFraction: 2},
		"bad discipline":       {Discipline: "turnstile"},
		"open without rate":    {Discipline: DisciplineOpen},
		"rate on closed loop":  {RateGBps: 4},
		"phase rate on closed": {Phases: []Phase{{DurationUs: 10, RateGBps: 4}, {DurationUs: 10, Off: true}}},
		"zero-length phase":    {Phases: []Phase{{DurationUs: 0}}},
		"sub-ns phase":         {Phases: []Phase{{DurationUs: 1e-7}}},
		"overflowing phase":    {Phases: []Phase{{DurationUs: 1e300}}},
		"tiny working set":     {WorkingSetBytes: 128},
		"oversized hot set":    {HotSetBytes: 8 << 30},
		"oversized workingset": {WorkingSetBytes: 8 << 30},
		// Cross-field combinations that would fail compilation must fail
		// validation too, or the daemon and CLI would accept specs that
		// later surface as run-time panics.
		"stride beyond set":    {Pattern: PatternStride, StrideBytes: 8192, WorkingSetBytes: 8192},
		"hot set beyond set":   {Pattern: PatternHotspot, HotSetBytes: 2 << 20, WorkingSetBytes: 1 << 20},
		"zipf table too large": {Pattern: PatternZipf, WorkingSetBytes: 4 << 30},
		"chase beyond set":     {Pattern: PatternChase, ChaseNodes: 4096, WorkingSetBytes: 64 << 10},
		"phase handoff bad":    {WorkingSetBytes: 4096, Phases: []Phase{{DurationUs: 1, Pattern: PatternStride}}},
		"unsustainable mix":    {WriteFraction: 0.95, MixRunLength: 8},
	}
	for name, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: accepted %+v", name, spec)
		}
	}
	// The zero value and a fully-specified spec must both pass.
	if err := (Spec{}).Validate(); err != nil {
		t.Errorf("zero spec rejected: %v", err)
	}
	ok := Spec{
		Pattern: PatternZipf, ZipfTheta: 1.2, WorkingSetBytes: 1 << 20,
		WriteFraction: 0.25, MixRunLength: 8,
		Discipline: DisciplineOpen, RateGBps: 2,
		Phases: []Phase{{DurationUs: 10, RateGBps: 4}, {DurationUs: 10, Off: true}},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	for _, us := range []float64{minPhaseUs, maxPhaseUs} {
		if err := (Spec{Phases: []Phase{{DurationUs: us}}}).Validate(); err != nil {
			t.Errorf("%g us phase rejected: %v", us, err)
		}
	}
	// Open-loop is fine without a base rate when every active phase
	// carries one.
	phased := Spec{Discipline: DisciplineOpen, Phases: []Phase{
		{DurationUs: 5, RateGBps: 3}, {DurationUs: 5, Off: true},
	}}
	if err := phased.Validate(); err != nil {
		t.Errorf("phase-rated open spec rejected: %v", err)
	}
}

// drain pulls n requests from a freshly compiled generator.
func drain(t *testing.T, spec Spec, size int, seed uint64, n int) ([]uint64, []bool) {
	t.Helper()
	g, err := Compile(spec, size, seed)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]uint64, n)
	writes := make([]bool, n)
	for i := range addrs {
		addrs[i], writes[i] = g.Next()
	}
	return addrs, writes
}

func TestCompileDeterminism(t *testing.T) {
	spec := Spec{Pattern: PatternZipf, ZipfTheta: 1.1, WriteFraction: 0.3, MixRunLength: 4}
	a1, w1 := drain(t, spec, 64, 7, 4096)
	a2, w2 := drain(t, spec, 64, 7, 4096)
	for i := range a1 {
		if a1[i] != a2[i] || w1[i] != w2[i] {
			t.Fatalf("same seed diverged at request %d: (%#x,%v) vs (%#x,%v)", i, a1[i], w1[i], a2[i], w2[i])
		}
	}
	b, _ := drain(t, spec, 64, 8, 4096)
	same := 0
	for i := range a1 {
		if a1[i] == b[i] {
			same++
		}
	}
	if same > len(a1)/10 {
		t.Fatalf("different seeds agree on %d of %d addresses", same, len(a1))
	}
}

func TestUniformAlignmentAndSpan(t *testing.T) {
	span := uint64(1 << 20)
	addrs, _ := drain(t, Spec{WorkingSetBytes: span}, 128, 1, 10000)
	for _, a := range addrs {
		if a >= span {
			t.Fatalf("address %#x outside working set %#x", a, span)
		}
		if a%128 != 0 {
			t.Fatalf("address %#x not 128-byte aligned", a)
		}
	}
}

func TestSequentialScans(t *testing.T) {
	addrs, _ := drain(t, Spec{Pattern: PatternSequential, WorkingSetBytes: 1 << 20}, 64, 1, 100)
	for i, a := range addrs {
		if want := uint64(i) * 64; a != want {
			t.Fatalf("sequential request %d at %#x, want %#x", i, a, want)
		}
	}
}

func TestStrideWraps(t *testing.T) {
	span := uint64(4096 * 4)
	addrs, _ := drain(t, Spec{Pattern: PatternStride, StrideBytes: 4096, WorkingSetBytes: span}, 64, 1, 8)
	for i, a := range addrs {
		if want := uint64(i) * 4096 % span; a != want {
			t.Fatalf("stride request %d at %#x, want %#x", i, a, want)
		}
	}
}

// TestZipfSkew checks the sampler against its analytic head: the
// hottest block's frequency must match 1/zeta(n, theta), and must grow
// with theta.
func TestZipfSkew(t *testing.T) {
	const n = 200000
	span := uint64(1 << 20) // 8192 blocks of 128 B
	blocks := span / 128
	prevTop := 0.0
	for _, theta := range []float64{0.5, 0.99, 1.4} {
		addrs, _ := drain(t, Spec{Pattern: PatternZipf, ZipfTheta: theta, WorkingSetBytes: span}, 128, 11, n)
		hits := map[uint64]int{}
		for _, a := range addrs {
			hits[a]++
		}
		top := float64(hits[0]) / n
		want := 1 / zeta(blocks, theta)
		if math.Abs(top-want) > 0.15*want+0.002 {
			t.Errorf("theta %.2f: top-block frequency %.4f, analytic %.4f", theta, top, want)
		}
		if top <= prevTop {
			t.Errorf("theta %.2f: top-block frequency %.4f did not grow from %.4f", theta, top, prevTop)
		}
		prevTop = top
	}
}

func TestHotspotFraction(t *testing.T) {
	spec := Spec{
		Pattern:     PatternHotspot,
		HotFraction: 0.9,
		HotSetBytes: 1 << 20,
		// 64 MiB working set: cold draws land in the hot prefix 1/64th
		// of the time, so the expected hot share is 0.9 + 0.1/64.
		WorkingSetBytes: 64 << 20,
	}
	addrs, _ := drain(t, spec, 128, 3, 100000)
	hot := 0
	for _, a := range addrs {
		if a < 1<<20 {
			hot++
		}
	}
	got := float64(hot) / float64(len(addrs))
	want := 0.9 + 0.1/64
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("hot-set share %.4f, want ~%.4f", got, want)
	}
}

// TestChaseCycle proves the pointer-chase walk is one full cycle: from
// any start, n steps visit every node exactly once and return home.
func TestChaseCycle(t *testing.T) {
	const nodes = 1000
	g, err := Compile(Spec{Pattern: PatternChase, ChaseNodes: nodes}, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]int, nodes)
	var first uint64
	for i := 0; i < nodes; i++ {
		a, _ := g.Next()
		if i == 0 {
			first = a
		}
		seen[a]++
	}
	if len(seen) != nodes {
		t.Fatalf("walk of %d steps visited %d distinct nodes, want %d (not a single cycle)", nodes, len(seen), nodes)
	}
	for a, c := range seen {
		if c != 1 {
			t.Fatalf("node %#x visited %d times in one lap", a, c)
		}
	}
	next, _ := g.Next()
	if next != first {
		t.Fatalf("lap did not close: step %d at %#x, lap started at %#x", nodes, next, first)
	}
}

// TestMixer checks both mixer modes: the long-run write fraction must
// match the spec, and a run length must actually lengthen write runs.
func TestMixer(t *testing.T) {
	count := func(spec Spec) (frac float64, meanRun float64) {
		_, writes := drain(t, spec, 64, 9, 100000)
		nw, runs, cur := 0, 0, 0
		for _, w := range writes {
			if w {
				nw++
				cur++
			} else if cur > 0 {
				runs++
				cur = 0
			}
		}
		if cur > 0 {
			runs++
		}
		if runs == 0 {
			return float64(nw) / float64(len(writes)), 0
		}
		return float64(nw) / float64(len(writes)), float64(nw) / float64(runs)
	}

	iidFrac, iidRun := count(Spec{WriteFraction: 0.3})
	if math.Abs(iidFrac-0.3) > 0.01 {
		t.Errorf("iid write fraction %.3f, want 0.3", iidFrac)
	}
	markovFrac, markovRun := count(Spec{WriteFraction: 0.3, MixRunLength: 8})
	if math.Abs(markovFrac-0.3) > 0.02 {
		t.Errorf("markov write fraction %.3f, want 0.3", markovFrac)
	}
	if markovRun < 6 || markovRun > 10 {
		t.Errorf("markov mean write-run %.2f, want ~8", markovRun)
	}
	if markovRun < 2*iidRun {
		t.Errorf("run length did not bite: markov %.2f vs iid %.2f", markovRun, iidRun)
	}

	if _, writes := drain(t, Spec{}, 64, 1, 1000); anyTrue(writes) {
		t.Error("zero spec issued writes; default must be read-only")
	}
	if _, writes := drain(t, Spec{WriteFraction: 1}, 64, 1, 1000); !allTrue(writes) {
		t.Error("writeFraction 1 issued reads")
	}
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}

func allTrue(bs []bool) bool {
	for _, b := range bs {
		if !b {
			return false
		}
	}
	return true
}

// TestPhases checks script resolution: durations, rate inheritance and
// overrides, off phases, and pattern handoff via UsePhase.
func TestPhases(t *testing.T) {
	spec := Spec{
		Pattern:    PatternSequential,
		Discipline: DisciplineOpen,
		RateGBps:   2,
		Phases: []Phase{
			{DurationUs: 10},                            // base pattern, base rate
			{DurationUs: 5, RateGBps: 6},                // rate override
			{DurationUs: 3, Off: true},                  // silence
			{DurationUs: 7, Pattern: PatternSequential}, // same name: still base
		},
		WorkingSetBytes: 1 << 20,
	}
	g, err := Compile(spec, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	ph := g.Phases()
	if len(ph) != 4 {
		t.Fatalf("compiled %d phases, want 4", len(ph))
	}
	wantDur := []sim.Time{10 * sim.Microsecond, 5 * sim.Microsecond, 3 * sim.Microsecond, 7 * sim.Microsecond}
	wantRate := []float64{2, 6, 0, 2}
	for i := range ph {
		if ph[i].Duration != wantDur[i] {
			t.Errorf("phase %d duration %v, want %v", i, ph[i].Duration, wantDur[i])
		}
		if ph[i].RateGBps != wantRate[i] {
			t.Errorf("phase %d rate %g, want %g", i, ph[i].RateGBps, wantRate[i])
		}
	}
	if !ph[2].Off || ph[0].Off {
		t.Error("off flags wrong")
	}

	// A handoff to a different pattern must switch streams and back.
	handoff := Spec{
		Pattern:         PatternSequential,
		WorkingSetBytes: 1 << 20,
		Phases: []Phase{
			{DurationUs: 1},
			{DurationUs: 1, Pattern: PatternUniform},
		},
	}
	h, err := Compile(handoff, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	a0, _ := h.Next() // sequential: 0
	a1, _ := h.Next() // sequential: 64
	if a0 != 0 || a1 != 64 {
		t.Fatalf("base phase not sequential: %#x, %#x", a0, a1)
	}
	h.UsePhase(1)
	uniform := false
	prev, _ := h.Next()
	for i := 0; i < 8; i++ {
		a, _ := h.Next()
		if a != prev+64 {
			uniform = true
		}
		prev = a
	}
	if !uniform {
		t.Error("phase 1 still sequential after handoff")
	}
	h.UsePhase(2) // wraps to phase 0: back to the base scan where it left off
	a, _ := h.Next()
	if a%64 != 0 || a >= 1<<20 {
		t.Fatalf("post-handoff address %#x invalid", a)
	}
}

// TestEveryNamedPatternCompiles pins validation and compilation
// together: every name PatternNames advertises must compile at every
// valid request size, so the two tables cannot drift apart.
func TestEveryNamedPatternCompiles(t *testing.T) {
	for _, name := range PatternNames() {
		for _, size := range []int{16, 48, 128} {
			g, err := Compile(Spec{Pattern: name}, size, 1)
			if err != nil {
				t.Errorf("%s at %dB: %v", name, size, err)
				continue
			}
			if a, _ := g.Next(); a >= 4<<30 {
				t.Errorf("%s at %dB: address %#x outside the cube", name, size, a)
			}
		}
	}
}

// TestValidateForMatchesCompile fuzzes the agreement the daemon relies
// on: whatever ValidateFor accepts must Compile, and whatever it
// rejects must not.
func TestValidateForMatchesCompile(t *testing.T) {
	rng := NewRNG(99)
	sizes := []int{16, 32, 64, 128}
	for i := 0; i < 500; i++ {
		spec := Spec{
			Pattern:         PatternNames()[rng.Intn(len(patternNames))],
			WorkingSetBytes: uint64(rng.Intn(1<<24)) &^ 15,
			StrideBytes:     rng.Intn(1<<14) &^ 15,
			HotSetBytes:     uint64(rng.Intn(1 << 22)),
			ZipfTheta:       rng.Float64() * 1.9,
			ChaseNodes:      rng.Intn(1 << 14),
			WriteFraction:   rng.Float64(),
			MixRunLength:    rng.Intn(16),
		}
		size := sizes[rng.Intn(len(sizes))]
		vErr := spec.ValidateFor(size)
		_, cErr := Compile(spec, size, 1)
		if (vErr == nil) != (cErr == nil) {
			t.Fatalf("validation and compilation disagree on %+v at %dB:\n  validate: %v\n  compile: %v", spec, size, vErr, cErr)
		}
	}
}

// TestNextDoesNotAllocate is the hot-loop guard behind the CI bench
// smoke: one request must cost zero heap allocations for every pattern
// and for the GUPS law.
func TestNextDoesNotAllocate(t *testing.T) {
	gens := map[string]*Gen{
		"gups":        GUPS(addr.AllAccess, 128, 1, false, ReadWriteMix),
		"gups-linear": GUPS(addr.AllAccess, 128, 1, true, WriteOnly),
	}
	for name, spec := range map[string]Spec{
		"uniform":    {},
		"stride":     {Pattern: PatternStride},
		"sequential": {Pattern: PatternSequential},
		"hotspot":    {Pattern: PatternHotspot},
		"zipf":       {Pattern: PatternZipf, WorkingSetBytes: 1 << 20},
		"chase":      {Pattern: PatternChase},
		"mixed":      {WriteFraction: 0.5, MixRunLength: 8},
	} {
		g, err := Compile(spec, 128, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gens[name] = g
	}
	for name, g := range gens {
		var sink uint64
		allocs := testing.AllocsPerRun(1000, func() {
			a, w := g.Next()
			sink += a
			if w {
				sink++
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Next allocates %.1f per request, want 0", name, allocs)
		}
		_ = sink
	}
}

// firmwareGUPS is the reference GUPS is held to: the GUPS firmware's
// request law written out on its own, with one issue counter driving
// ReadWriteMix's alternation.
type firmwareGUPS struct {
	size   int
	kind   RequestKind
	mask   addr.Mask
	linear bool
	rng    *sim.Rand
	next   uint64
	issued uint64
}

func (p *firmwareGUPS) generate() (uint64, bool) {
	var raw uint64
	if p.linear {
		raw = p.next
		p.next += uint64(p.size)
	} else {
		raw = p.rng.Uint64()
	}
	a := p.mask.Apply(raw&(addr.CubeBytes-1)) &^ uint64(p.size-1)
	write := false
	switch p.kind {
	case WriteOnly:
		write = true
	case ReadWriteMix:
		write = p.issued%2 == 1
	}
	p.issued++
	return a, write
}

// TestGUPSMatchesFirmwareLaw holds GUPS to the reference law, request
// by request, over random and linear addressing, whole-cube, bank and
// single-vault masks, every RequestKind, two sizes and two seeds.
func TestGUPSMatchesFirmwareLaw(t *testing.T) {
	if g := GUPS(addr.AllAccess, 64, 1, false, ReadOnly); !g.Closed() || len(g.Phases()) != 0 {
		t.Fatal("GUPS generator is not closed-loop without phases")
	}
	m := addr.MustMapping(128)
	banks, err := m.BanksMask(2)
	if err != nil {
		t.Fatal(err)
	}
	vault, err := m.SingleVaultMask(5)
	if err != nil {
		t.Fatal(err)
	}
	masks := map[string]addr.Mask{"all": addr.AllAccess, "banks2": banks, "vault5": vault}
	for _, linear := range []bool{false, true} {
		for mname, mask := range masks {
			for _, kind := range []RequestKind{ReadOnly, WriteOnly, ReadWriteMix} {
				for _, size := range []int{32, 128} {
					for _, seed := range []uint64{6, 0x9E3779B9*4 + 12} {
						g := GUPS(mask, size, seed, linear, kind)
						ref := &firmwareGUPS{size: size, kind: kind, mask: mask, linear: linear, rng: sim.NewRand(seed)}
						for i := 0; i < 1000; i++ {
							a, w := g.Next()
							ra, rw := ref.generate()
							if a != ra || w != rw {
								t.Fatalf("linear=%v mask=%s kind=%d size=%d seed=%d: request %d is (%#x, %v), want (%#x, %v)",
									linear, mname, kind, size, seed, i, a, w, ra, rw)
							}
						}
					}
				}
			}
		}
	}
}
