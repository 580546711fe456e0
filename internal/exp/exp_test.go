package exp

import (
	"context"
	"math"
	"strings"
	"testing"

	"hmcsim/internal/stats"
)

// The tests in this file assert the paper's qualitative findings — curve
// orderings, plateaus, crossovers — on reduced (Quick) sweeps. Absolute
// numbers are pinned by the AB goldens in testdata/ab (see ab_test.go).

var (
	quick = Options{Quick: true}
	ctx   = context.Background()
)

func TestTableIString(t *testing.T) {
	s := TableI().String()
	for _, want := range []string{"16B", "128B", "9 flits", "50%", "89%"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I output missing %q:\n%s", want, s)
		}
	}
}

func TestPeakBandwidth60(t *testing.T) {
	if got := PeakBandwidth().Peak.GBpsValue(); got != 60 {
		t.Fatalf("Equation 1 = %v GB/s, want 60", got)
	}
}

func TestFig6Shapes(t *testing.T) {
	r := Fig6(ctx, Options{Quick: true})

	// (1) One bank is the slowest pattern at every size; the paper's
	// lowest figure is ~2 GB/s at 32 B.
	for _, size := range Sizes {
		bank1, ok := r.Point("1 bank", size)
		if !ok {
			t.Fatalf("missing 1-bank point for %dB", size)
		}
		all, _ := r.Point("16 vaults", size)
		if bank1.GBps >= all.GBps {
			t.Errorf("%dB: 1 bank (%v) not slower than 16 vaults (%v)", size, bank1.GBps, all.GBps)
		}
		if bank1.AvgLatNs <= all.AvgLatNs {
			t.Errorf("%dB: 1 bank latency (%v) not above 16 vaults (%v)", size, bank1.AvgLatNs, all.AvgLatNs)
		}
	}

	// (2) The 8-bank and 1-vault patterns plateau at the ~10 GB/s vault
	// bandwidth for larger sizes.
	for _, size := range []int{32, 64, 128} {
		for _, pat := range []string{"8 banks", "1 vault"} {
			p, _ := r.Point(pat, size)
			if p.GBps < 8.5 || p.GBps > 10.5 {
				t.Errorf("%s %dB = %.2f GB/s, want ~10", pat, size, p.GBps)
			}
		}
	}

	// (3) Distributed 128 B accesses reach the low-20s GB/s external
	// ceiling (paper: 23 GB/s).
	for _, pat := range []string{"4 vaults", "8 vaults", "16 vaults"} {
		p, _ := r.Point(pat, 128)
		if p.GBps < 20 || p.GBps > 24 {
			t.Errorf("%s 128B = %.2f GB/s, want ~22", pat, p.GBps)
		}
	}

	// (4) Larger requests always achieve higher bandwidth within a
	// pattern (Section IV-A).
	for _, pat := range []string{"1 bank", "16 vaults"} {
		prev := 0.0
		for _, size := range Sizes {
			p, _ := r.Point(pat, size)
			if p.GBps < prev {
				t.Errorf("%s: bandwidth fell from %.2f to %.2f at %dB", pat, prev, p.GBps, size)
			}
			prev = p.GBps
		}
	}

	// (5) Small requests have lower latency than large within a pattern.
	for _, pat := range []string{"16 vaults", "1 vault"} {
		small, _ := r.Point(pat, 16)
		large, _ := r.Point(pat, 128)
		if small.AvgLatNs >= large.AvgLatNs {
			t.Errorf("%s: 16B latency (%v) not below 128B (%v)", pat, small.AvgLatNs, large.AvgLatNs)
		}
	}

	// (6) Headline latency range: ~2 us for spread small requests up to
	// tens of us for single-bank large requests.
	spread16, _ := r.Point("16 vaults", 16)
	if spread16.AvgLatNs < 1000 || spread16.AvgLatNs > 3000 {
		t.Errorf("16 vaults 16B latency = %.0f ns, want ~2000", spread16.AvgLatNs)
	}
	bank128, _ := r.Point("1 bank", 128)
	if bank128.AvgLatNs < 15000 || bank128.AvgLatNs > 40000 {
		t.Errorf("1 bank 128B latency = %.0f ns, want ~24000", bank128.AvgLatNs)
	}
}

func TestFig7Shapes(t *testing.T) {
	r := Fig7(ctx, quick)
	// No-load floor ~0.7 us for every size (547 ns infrastructure plus
	// 100-180 ns device).
	for _, size := range Sizes {
		p, ok := r.Point(size, 1)
		if !ok {
			t.Fatalf("missing n=1 point for %dB", size)
		}
		if p.AvgLatNs < 600 || p.AvgLatNs > 900 {
			t.Errorf("%dB no-load latency = %.0f ns, want ~700", size, p.AvgLatNs)
		}
	}
	// Latency grows with stream length, faster for larger requests.
	for _, size := range Sizes {
		ns, lat := r.Curve(size)
		slope, _ := stats.LinearFit(ns, lat)
		if slope <= 0 {
			t.Errorf("%dB: latency not increasing with stream length", size)
		}
	}
	ns16, lat16 := r.Curve(16)
	ns128, lat128 := r.Curve(128)
	s16, _ := stats.LinearFit(ns16, lat16)
	s128, _ := stats.LinearFit(ns128, lat128)
	if s128 <= 2*s16 {
		t.Errorf("128B slope (%v) not much steeper than 16B (%v)", s128, s16)
	}
}

func TestFig8LinearThenFlat(t *testing.T) {
	r := Fig8(ctx, quick)
	for _, size := range []int{16, 128} {
		ns, lat := r.Curve(size)
		if len(ns) < 6 {
			t.Fatalf("curve too short: %d points", len(ns))
		}
		// Early slope (first half) must greatly exceed late slope (last
		// third): the linear region then the full-queue plateau.
		mid := len(ns) / 2
		tail := 2 * len(ns) / 3
		early, _ := stats.LinearFit(ns[:mid], lat[:mid])
		late, _ := stats.LinearFit(ns[tail:], lat[tail:])
		if early <= 0 {
			t.Errorf("%dB: no linear region", size)
		}
		if late > early/3 {
			t.Errorf("%dB: no plateau: early slope %v, late slope %v", size, early, late)
		}
	}
}

func TestFig9CollisionPenalty(t *testing.T) {
	r := Fig9(ctx, quick)
	for _, pinned := range []int{1, 5} {
		for _, size := range []int{16, 128} {
			pen := r.CollisionPenalty(pinned, size)
			if pen < 1.15 {
				t.Errorf("pinned %d, %dB: collision penalty %.2f, want >= 1.15", pinned, size, pen)
			}
			if pen > 2.0 {
				t.Errorf("pinned %d, %dB: collision penalty %.2f implausibly high", pinned, size, pen)
			}
		}
	}
}

func TestFig10Findings(t *testing.T) {
	r := Fig10(ctx, Options{Quick: true})
	// Means grow with request size and sit in the paper's ballpark
	// (1.6-4.3 us on hardware; the simulator runs a little faster).
	prevMean := 0.0
	for _, size := range Sizes {
		mean, sigma := r.Stats(size)
		if mean <= prevMean {
			t.Errorf("%dB: mean %.0f not above previous size's %.0f", size, mean, prevMean)
		}
		prevMean = mean
		if sigma <= 0 {
			t.Errorf("%dB: zero latency variance", size)
		}
	}
	// The paper's key claim: vault position contributes almost nothing —
	// correlation between vault number and mean latency is weak.
	for _, size := range Sizes {
		if c := math.Abs(r.Correlation(size)); c > 0.8 {
			t.Errorf("%dB: |corr(vault, latency)| = %.2f; position should not dominate", size, c)
		}
	}
	// Every vault received samples.
	for _, size := range Sizes {
		for v, samples := range r.SamplesByVault[size] {
			if len(samples) == 0 {
				t.Errorf("%dB: vault %d never sampled", size, v)
			}
		}
	}
}

func TestFig10Heatmaps(t *testing.T) {
	r := Fig10(ctx, Options{Quick: true})
	hm := r.Heatmap(64).Render()
	if !strings.Contains(hm, "vault") {
		t.Fatalf("heatmap missing label:\n%s", hm)
	}
	tm := r.TransposeHeatmap(64).Render()
	if len(strings.Split(tm, "\n")) < 10 {
		t.Fatalf("transpose heatmap too small:\n%s", tm)
	}
}

func TestFig13Shapes(t *testing.T) {
	r := Fig13(ctx, Options{Quick: true})
	// Bank-limited patterns are flat (saturated from few ports); spread
	// patterns grow with port count.
	for _, size := range Sizes {
		pts, bw := r.Series(size, "1 bank")
		if len(pts) == 0 {
			t.Fatal("missing 1-bank series")
		}
		if bw[len(bw)-1] > bw[0]*1.6 {
			t.Errorf("%dB 1 bank: bandwidth grew %vx with ports; expected flat", size, bw[len(bw)-1]/bw[0])
		}
		// Spread patterns grow with port count until the external
		// ceiling; 128 B nearly saturates from one port (the paper's
		// "quickly reach the bottleneck" note for Figure 13d), so the
		// growth requirement is modest.
		_, spread := r.Series(size, "16 vaults")
		if spread[len(spread)-1] < spread[0]*1.2 {
			t.Errorf("%dB 16 vaults: bandwidth did not grow with ports (%v -> %v)",
				size, spread[0], spread[len(spread)-1])
		}
	}
	// 16/32 B saturate the vault at 8 banks; 64/128 B already at 4 banks
	// (Section IV-F).
	for _, size := range []int{64, 128} {
		p, ok := r.SaturatedPoint(size, "4 banks")
		if !ok || p.GBps < 8.5 {
			t.Errorf("%dB 4 banks saturated at %.2f GB/s, want ~10", size, p.GBps)
		}
	}
	for _, size := range []int{16, 32} {
		p, _ := r.SaturatedPoint(size, "4 banks")
		if p.GBps > 8.5 {
			t.Errorf("%dB 4 banks reached %.2f GB/s; should be bank-bound below the vault cap", size, p.GBps)
		}
	}
}

func TestFig14Linearity(t *testing.T) {
	r := Fig14(ctx, quick)
	two, four := r.Average(2), r.Average(4)
	if two < 200 || two > 400 {
		t.Errorf("2-bank outstanding = %.0f, want ~290 (paper: 288)", two)
	}
	if four < 400 || four > 600 {
		t.Errorf("4-bank outstanding = %.0f, want ~500 (paper: 535)", four)
	}
	ratio := four / two
	if ratio < 1.4 || ratio > 2.1 {
		t.Errorf("outstanding ratio 4:2 banks = %.2f, want ~1.7 (queue per bank)", ratio)
	}
	// Size independence: every size's estimate within 15% of the mean.
	for _, p := range r.Points {
		avg := r.Average(p.Banks)
		if p.LittleN < avg*0.85 || p.LittleN > avg*1.15 {
			t.Errorf("%d banks %dB: outstanding %.0f deviates from mean %.0f", p.Banks, p.Size, p.LittleN, avg)
		}
	}
}

func TestDDRComparison(t *testing.T) {
	r := DDRComparison(ctx, quick)
	if r.DDRIdleLatNs <= 0 || r.HMCIdleLatNs <= 0 {
		t.Fatal("missing idle latencies")
	}
	// Packetized memory has higher idle latency than the synchronous bus
	// (Section IV-B)...
	if r.HMCIdleLatNs <= r.DDRIdleLatNs {
		t.Errorf("HMC idle latency (%v) not above DDR (%v)", r.HMCIdleLatNs, r.DDRIdleLatNs)
	}
	// ...but higher random-access bandwidth even through the two
	// half-width links, and an order of magnitude more inside the cube.
	if r.HMCRandomGBps < 1.2*r.DDRRandomGBps {
		t.Errorf("HMC random bandwidth (%v) not above DDR (%v)", r.HMCRandomGBps, r.DDRRandomGBps)
	}
	if r.HMCInternalGBps < 10*r.DDRRandomGBps {
		t.Errorf("HMC internal bandwidth (%v) not >> DDR (%v)", r.HMCInternalGBps, r.DDRRandomGBps)
	}
}

func TestOptionsSeedStability(t *testing.T) {
	// Conclusions survive a different workload seed.
	a := Fig14(ctx, Options{Quick: true, Seed: 0})
	b := Fig14(ctx, Options{Quick: true, Seed: 12345})
	for _, banks := range []int{2, 4} {
		ra, rb := a.Average(banks), b.Average(banks)
		if ra/rb > 1.2 || rb/ra > 1.2 {
			t.Errorf("%d banks: seed changed outstanding estimate %v -> %v", banks, ra, rb)
		}
	}
}

func TestCombinations4(t *testing.T) {
	combos := Combinations4()
	if len(combos) != 1820 {
		t.Fatalf("C(16,4) = %d, want 1820", len(combos))
	}
	seen := map[[4]int]bool{}
	for _, c := range combos {
		if !(c[0] < c[1] && c[1] < c[2] && c[2] < c[3]) {
			t.Fatalf("combo %v not strictly increasing", c)
		}
		if seen[c] {
			t.Fatalf("duplicate combo %v", c)
		}
		seen[c] = true
	}
}

func TestResultStringers(t *testing.T) {
	// All result types print non-empty, labeled tables.
	if s := Fig14(ctx, quick).String(); !strings.Contains(s, "Figure 14") {
		t.Error("Fig14 string unlabeled")
	}
	if s := Fig7(ctx, quick).String(); !strings.Contains(s, "Figure 7") {
		t.Error("Fig7 string unlabeled")
	}
	if s := PeakBandwidth().String(); !strings.Contains(s, "60.00GB/s") {
		t.Error("Eq1 string missing value")
	}
}
