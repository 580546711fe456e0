package exp

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"hmcsim"
	"hmcsim/internal/addr"
	"hmcsim/internal/stats"
)

// The tests in this file assert the paper's qualitative findings — curve
// orderings, plateaus, crossovers — on the memoised quick Results that
// TestABGuard pins byte for byte (see ab_test.go), read the way the CLI
// and hmcsimd read them: through their series and their text.

var ctx = context.Background()

// series returns the metric series of runner name's memoised quick
// Result.
func series(t *testing.T, name, metric string) hmcsim.Series {
	t.Helper()
	s, ok := quickResult(t, name).Get(metric)
	if !ok {
		t.Fatalf("%s: no %q series", name, metric)
	}
	return s
}

// y returns the Y of the point of s labeled label at x.
func y(t *testing.T, s hmcsim.Series, label string, x float64) float64 {
	t.Helper()
	v, ok := s.Lookup(label, x)
	if !ok {
		t.Fatalf("%s: no point %q at x = %g", s.Name, label, x)
	}
	return v
}

// curve returns the points of s labeled label, in sweep order.
func curve(s hmcsim.Series, label string) (xs, ys []float64) {
	for _, p := range s.Points {
		if p.Label == label {
			xs = append(xs, p.X)
			ys = append(ys, p.Y)
		}
	}
	return xs, ys
}

// mean returns the mean Y of the points of s labeled label.
func mean(t *testing.T, s hmcsim.Series, label string) float64 {
	t.Helper()
	_, ys := curve(s, label)
	if len(ys) == 0 {
		t.Fatalf("%s: no points labeled %q", s.Name, label)
	}
	var sum float64
	for _, v := range ys {
		sum += v
	}
	return sum / float64(len(ys))
}

// block returns the lines of text that follow the line heading, up to
// the next blank line.
func block(t *testing.T, text, heading string) []string {
	t.Helper()
	_, after, ok := strings.Cut(text, heading+"\n")
	if !ok {
		t.Fatalf("text has no %q:\n%s", heading, text)
	}
	body, _, _ := strings.Cut(after, "\n\n")
	return strings.Split(strings.TrimSuffix(body, "\n"), "\n")
}

func TestTableIString(t *testing.T) {
	s := quickResult(t, "table1").Text
	for _, want := range []string{"16B", "128B", "9 flits", "50%", "89%"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table I output missing %q:\n%s", want, s)
		}
	}
}

func TestPeakBandwidth60(t *testing.T) {
	if got := y(t, series(t, "eq1", "peak-bandwidth"), "bi-directional", 2); got != 60 {
		t.Fatalf("Equation 1 = %v GB/s, want 60", got)
	}
	if s := quickResult(t, "eq1").Text; !strings.Contains(s, "60.00GB/s") {
		t.Errorf("Eq1 text missing value: %s", s)
	}
}

func TestFig6Shapes(t *testing.T) {
	bw := series(t, "fig6", "bandwidth")
	lat := series(t, "fig6", "avg-latency")

	// (1) One bank is the slowest pattern at every size; the paper's
	// lowest figure is ~2 GB/s at 32 B.
	for _, size := range sizes {
		x := float64(size)
		if bank1, all := y(t, bw, "1 bank", x), y(t, bw, "16 vaults", x); bank1 >= all {
			t.Errorf("%dB: 1 bank (%v) not slower than 16 vaults (%v)", size, bank1, all)
		}
		if bank1, all := y(t, lat, "1 bank", x), y(t, lat, "16 vaults", x); bank1 <= all {
			t.Errorf("%dB: 1 bank latency (%v) not above 16 vaults (%v)", size, bank1, all)
		}
	}

	// (2) The 8-bank and 1-vault patterns plateau at the ~10 GB/s vault
	// bandwidth for larger sizes.
	for _, size := range []int{32, 64, 128} {
		for _, pat := range []string{"8 banks", "1 vault"} {
			if gbps := y(t, bw, pat, float64(size)); gbps < 8.5 || gbps > 10.5 {
				t.Errorf("%s %dB = %.2f GB/s, want ~10", pat, size, gbps)
			}
		}
	}

	// (3) Distributed 128 B accesses reach the low-20s GB/s external
	// ceiling (paper: 23 GB/s).
	for _, pat := range []string{"4 vaults", "8 vaults", "16 vaults"} {
		if gbps := y(t, bw, pat, 128); gbps < 20 || gbps > 24 {
			t.Errorf("%s 128B = %.2f GB/s, want ~22", pat, gbps)
		}
	}

	// (4) Larger requests always achieve higher bandwidth within a
	// pattern (Section IV-A).
	for _, pat := range []string{"1 bank", "16 vaults"} {
		prev := 0.0
		for _, size := range sizes {
			gbps := y(t, bw, pat, float64(size))
			if gbps < prev {
				t.Errorf("%s: bandwidth fell from %.2f to %.2f at %dB", pat, prev, gbps, size)
			}
			prev = gbps
		}
	}

	// (5) Small requests have lower latency than large within a pattern.
	for _, pat := range []string{"16 vaults", "1 vault"} {
		if small, large := y(t, lat, pat, 16), y(t, lat, pat, 128); small >= large {
			t.Errorf("%s: 16B latency (%v) not below 128B (%v)", pat, small, large)
		}
	}

	// (6) Headline latency range: ~2 us for spread small requests up to
	// tens of us for single-bank large requests.
	if spread16 := y(t, lat, "16 vaults", 16); spread16 < 1000 || spread16 > 3000 {
		t.Errorf("16 vaults 16B latency = %.0f ns, want ~2000", spread16)
	}
	if bank128 := y(t, lat, "1 bank", 128); bank128 < 15000 || bank128 > 40000 {
		t.Errorf("1 bank 128B latency = %.0f ns, want ~24000", bank128)
	}
}

func TestFig7Shapes(t *testing.T) {
	lat := series(t, "fig7", "avg-latency")
	// No-load floor ~0.7 us for every size (547 ns infrastructure plus
	// 100-180 ns device).
	for _, size := range sizes {
		if ns := y(t, lat, fmt.Sprintf("%dB", size), 1); ns < 600 || ns > 900 {
			t.Errorf("%dB no-load latency = %.0f ns, want ~700", size, ns)
		}
	}
	// Latency grows with stream length, faster for larger requests.
	for _, size := range sizes {
		slope, _ := stats.LinearFit(curve(lat, fmt.Sprintf("%dB", size)))
		if slope <= 0 {
			t.Errorf("%dB: latency not increasing with stream length", size)
		}
	}
	s16, _ := stats.LinearFit(curve(lat, "16B"))
	s128, _ := stats.LinearFit(curve(lat, "128B"))
	if s128 <= 2*s16 {
		t.Errorf("128B slope (%v) not much steeper than 16B (%v)", s128, s16)
	}
	if s := quickResult(t, "fig7").Text; !strings.HasPrefix(s, "Figure 7") {
		t.Errorf("Fig7 text unlabeled:\n%s", s)
	}
}

func TestFig8LinearThenFlat(t *testing.T) {
	lat := series(t, "fig8", "avg-latency")
	for _, size := range []int{16, 128} {
		ns, ys := curve(lat, fmt.Sprintf("%dB", size))
		if len(ns) < 6 {
			t.Fatalf("curve too short: %d points", len(ns))
		}
		// Early slope (first half) must greatly exceed late slope (last
		// third): the linear region then the full-queue plateau.
		mid := len(ns) / 2
		tail := 2 * len(ns) / 3
		early, _ := stats.LinearFit(ns[:mid], ys[:mid])
		late, _ := stats.LinearFit(ns[tail:], ys[tail:])
		if early <= 0 {
			t.Errorf("%dB: no linear region", size)
		}
		if late > early/3 {
			t.Errorf("%dB: no plateau: early slope %v, late slope %v", size, early, late)
		}
	}
}

func TestFig9CollisionPenalty(t *testing.T) {
	pens := series(t, "fig9", "collision-penalty")
	for _, pinned := range []int{1, 5} {
		for _, size := range []int{16, 128} {
			pen := y(t, pens, fmt.Sprintf("pinned%d", pinned), float64(size))
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
	means := series(t, "fig10", "mean-latency")
	sigmas := series(t, "fig10", "stddev-latency")
	corrs := series(t, "fig10", "vault-position-correlation")
	// Means grow with request size and sit in the paper's ballpark
	// (1.6-4.3 us on hardware; the simulator runs a little faster).
	prevMean := 0.0
	for _, size := range sizes {
		x := float64(size)
		avg := y(t, means, "", x)
		if avg <= prevMean {
			t.Errorf("%dB: mean %.0f not above previous size's %.0f", size, avg, prevMean)
		}
		prevMean = avg
		if sigma := y(t, sigmas, "", x); sigma <= 0 {
			t.Errorf("%dB: zero latency variance", size)
		}
		// The paper's key claim: vault position contributes almost
		// nothing — correlation between vault number and mean latency
		// is weak.
		if c := math.Abs(y(t, corrs, "", x)); c > 0.8 {
			t.Errorf("%dB: |corr(vault, latency)| = %.2f; position should not dominate", size, c)
		}
	}
}

func TestFig10Heatmaps(t *testing.T) {
	text := quickResult(t, "fig10").Text
	hm := block(t, text, "Figure 10 heatmap, 64B (rows=vaults, cols=latency bins):")
	if !strings.HasPrefix(hm[0], "vault") || len(hm) != 1+addr.Vaults {
		t.Fatalf("heatmap missing label or vaults:\n%s", strings.Join(hm, "\n"))
	}
	tm := block(t, text, "Figure 12 heatmap, 64B (rows=latency bins, cols=vaults):")
	if len(tm) < 10 {
		t.Fatalf("transpose heatmap too small:\n%s", strings.Join(tm, "\n"))
	}
}

func TestFig13Shapes(t *testing.T) {
	bw := series(t, "fig13", "bandwidth")
	// Bank-limited patterns are flat (saturated from few ports); spread
	// patterns grow with port count.
	for _, size := range sizes {
		_, bank := curve(bw, fmt.Sprintf("1 bank/%dB", size))
		if len(bank) == 0 {
			t.Fatal("missing 1-bank series")
		}
		if bank[len(bank)-1] > bank[0]*1.6 {
			t.Errorf("%dB 1 bank: bandwidth grew %vx with ports; expected flat", size, bank[len(bank)-1]/bank[0])
		}
		// Spread patterns grow with port count until the external
		// ceiling; 128 B nearly saturates from one port (the paper's
		// "quickly reach the bottleneck" note for Figure 13d), so the
		// growth requirement is modest.
		_, spread := curve(bw, fmt.Sprintf("16 vaults/%dB", size))
		if spread[len(spread)-1] < spread[0]*1.2 {
			t.Errorf("%dB 16 vaults: bandwidth did not grow with ports (%v -> %v)",
				size, spread[0], spread[len(spread)-1])
		}
	}
	// 16/32 B saturate the vault at 8 banks; 64/128 B already at 4 banks
	// (Section IV-F). The last point of a series has the most ports,
	// which in every pattern of the paper is in the saturated region.
	saturated := func(size int) float64 {
		_, gbps := curve(bw, fmt.Sprintf("4 banks/%dB", size))
		if len(gbps) == 0 {
			t.Fatalf("missing 4-bank series at %dB", size)
		}
		return gbps[len(gbps)-1]
	}
	for _, size := range []int{64, 128} {
		if gbps := saturated(size); gbps < 8.5 {
			t.Errorf("%dB 4 banks saturated at %.2f GB/s, want ~10", size, gbps)
		}
	}
	for _, size := range []int{16, 32} {
		if gbps := saturated(size); gbps > 8.5 {
			t.Errorf("%dB 4 banks reached %.2f GB/s; should be bank-bound below the vault cap", size, gbps)
		}
	}
}

func TestFig14Linearity(t *testing.T) {
	little := series(t, "fig14", "little-outstanding")
	two, four := mean(t, little, "2banks"), mean(t, little, "4banks")
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
	for _, p := range little.Points {
		avg := mean(t, little, p.Label)
		if p.Y < avg*0.85 || p.Y > avg*1.15 {
			t.Errorf("%s %gB: outstanding %.0f deviates from mean %.0f", p.Label, p.X, p.Y, avg)
		}
	}
	if s := quickResult(t, "fig14").Text; !strings.HasPrefix(s, "Figure 14") {
		t.Errorf("Fig14 text unlabeled:\n%s", s)
	}
}

// TestFig14LittleMatchesSampled holds Little's law as an oracle: the
// estimate from the measured read rate times the mean in-cube read
// latency, and the time-averaged cube occupancy sampled by the
// simulator, are independent measurements of the same queue, so every
// point's two values must agree within 5%.
func TestFig14LittleMatchesSampled(t *testing.T) {
	sampled := series(t, "fig14", "sampled-outstanding")
	for _, p := range series(t, "fig14", "little-outstanding").Points {
		n := y(t, sampled, p.Label, p.X)
		if dev := math.Abs(p.Y-n) / n; dev > 0.05 {
			t.Errorf("%s %gB: Little's law gives %.1f outstanding, sampled %.1f (%.1f%% apart)", p.Label, p.X, p.Y, n, 100*dev)
		}
	}
}

func TestDDRComparison(t *testing.T) {
	const ddr, hmc = "DDR3-1600 channel", "HMC 1.1 (device)"
	idle := series(t, "ddr", "idle-latency")
	random := series(t, "ddr", "random-read-bandwidth")
	ddrIdle, hmcIdle := y(t, idle, ddr, 64), y(t, idle, hmc, 64)
	if ddrIdle <= 0 || hmcIdle <= 0 {
		t.Fatal("missing idle latencies")
	}
	// Packetized memory has higher idle latency than the synchronous bus
	// (Section IV-B)...
	if hmcIdle <= ddrIdle {
		t.Errorf("HMC idle latency (%v) not above DDR (%v)", hmcIdle, ddrIdle)
	}
	// ...but higher random-access bandwidth even through the two
	// half-width links, and an order of magnitude more inside the cube.
	ddrRandom, hmcRandom := y(t, random, ddr, 64), y(t, random, hmc, 64)
	if hmcRandom < 1.2*ddrRandom {
		t.Errorf("HMC random bandwidth (%v) not above DDR (%v)", hmcRandom, ddrRandom)
	}
	internal := y(t, series(t, "ddr", "hmc-internal-bandwidth"), "HMC 1.1 (16 vaults)", 64)
	if internal < 10*ddrRandom {
		t.Errorf("HMC internal bandwidth (%v) not >> DDR (%v)", internal, ddrRandom)
	}
}

func TestOptionsSeedStability(t *testing.T) {
	// Conclusions survive a different workload seed.
	other, err := Run(ctx, "fig14", Options{Quick: true, Seed: 12345})
	if err != nil {
		t.Fatal(err)
	}
	a := series(t, "fig14", "little-outstanding")
	b, ok := other.Get("little-outstanding")
	if !ok {
		t.Fatal("seed 12345: no little-outstanding series")
	}
	for _, banks := range []string{"2banks", "4banks"} {
		ra, rb := mean(t, a, banks), mean(t, b, banks)
		if ra/rb > 1.2 || rb/ra > 1.2 {
			t.Errorf("%s: seed changed outstanding estimate %v -> %v", banks, ra, rb)
		}
	}
}

func TestCombinations4(t *testing.T) {
	combos := combinations4()
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
	// fig10 attributes each combination's latency to its four vaults,
	// so every vault is sampled when the quick subsample covers it.
	var sampled [addr.Vaults]bool
	for ci := 0; ci < len(combos); ci += quickComboStride {
		for _, v := range combos[ci] {
			sampled[v] = true
		}
	}
	for v, ok := range sampled {
		if !ok {
			t.Errorf("vault %d never sampled by quick fig10", v)
		}
	}
}
