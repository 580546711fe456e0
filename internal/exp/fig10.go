package exp

import (
	"context"
	"fmt"

	"hmcsim"
	"hmcsim/internal/addr"
	"hmcsim/internal/host"
	"hmcsim/internal/stats"
)

// vaultComboResult holds the four-vault combination study behind
// Figures 10, 11 and 12: for every combination of four distinct vaults,
// four stream ports each hammer one vault; the average latency of the
// run is attributed to every vault in the combination.
type vaultComboResult struct {
	// samplesByVault[size][vault] lists the attributed combo-average
	// latencies (ns).
	samplesByVault map[int][][]float64
	combos         int
}

// quickComboStride is quick mode's subsample of the combinations:
// every 16th, 114 of the 1820.
const quickComboStride = 16

// combinations4 enumerates all C(16,4) = 1820 four-vault combinations in
// lexicographic order.
func combinations4() [][4]int {
	var out [][4]int
	for a := 0; a < addr.Vaults; a++ {
		for b := a + 1; b < addr.Vaults; b++ {
			for c := b + 1; c < addr.Vaults; c++ {
				for d := c + 1; d < addr.Vaults; d++ {
					out = append(out, [4]int{a, b, c, d})
				}
			}
		}
	}
	return out
}

// fig10 runs the combination study. Quick mode subsamples the 1820
// combinations to keep bench times reasonable; the CLI runs the full set.
func fig10(ctx context.Context, o Options) vaultComboResult {
	combos := combinations4()
	stride := 1
	if o.Quick {
		stride = quickComboStride
	}
	n := 256
	if o.Quick {
		n = 128
	}
	res := vaultComboResult{samplesByVault: map[int][][]float64{}}
	// One shared system per size replays every combination; the sizes
	// are independent systems and fan out across workers.
	type sizeRun struct {
		perVault [][]float64
		combos   int
	}
	perSize := hmcsim.Sweep(ctx, o.Workers, len(sizes), func(si int) sizeRun {
		size := sizes[si]
		run := sizeRun{perVault: make([][]float64, addr.Vaults)}
		sys := o.NewSystemCtx(ctx)
		for ci := 0; ci < len(combos); ci += stride {
			combo := combos[ci]
			// Every port spreads its reads over the whole four-vault
			// region ("accesses to four vaults, targeting 1 GB in
			// total"), so ports interleave at the vaults and the NoC.
			traces := make([][]host.Request, 4)
			for i := range traces {
				traces[i] = sys.RandomTraceVaults(n, size, combo[:],
					o.Seed+uint64(ci*7+i))
			}
			ports := sys.PlayStreams(traces)
			var agg float64
			var reads uint64
			for _, p := range ports {
				agg += p.Mon.AggLat.Nanoseconds()
				reads += p.Mon.Reads
			}
			avg := agg / float64(reads)
			for _, v := range combo {
				run.perVault[v] = append(run.perVault[v], avg)
			}
			run.combos++
		}
		return run
	})
	for si, size := range sizes {
		res.samplesByVault[size] = perSize[si].perVault
	}
	res.combos = perSize[0].combos
	return res
}

// pooled returns every attributed latency for one size.
func (r vaultComboResult) pooled(size int) stats.Stream {
	var s stats.Stream
	for _, vs := range r.samplesByVault[size] {
		for _, x := range vs {
			s.Add(x)
		}
	}
	return s
}

// correlation quantifies the Figure 12 claim that vault position barely
// matters: the Pearson correlation between vault number and that vault's
// mean attributed latency should be near zero.
func (r vaultComboResult) correlation(size int) float64 {
	var xs, ys []float64
	for v, samples := range r.samplesByVault[size] {
		var s stats.Stream
		for _, x := range samples {
			s.Add(x)
		}
		xs = append(xs, float64(v))
		ys = append(ys, s.Mean())
	}
	return stats.Pearson(xs, ys)
}

// vaultHistograms builds the per-vault latency histograms of Figure 10
// for one size: one histogram per vault over nine bins spanning the
// observed range.
func (r vaultComboResult) vaultHistograms(size int) []*stats.Histogram {
	all := r.pooled(size)
	lo, hi := all.Min(), all.Max()
	if hi <= lo {
		hi = lo + 1
	}
	hists := make([]*stats.Histogram, addr.Vaults)
	for v := range hists {
		hists[v] = stats.NewHistogram(lo, hi, 9)
		for _, x := range r.samplesByVault[size][v] {
			hists[v].Add(x)
		}
	}
	return hists
}

// heatmap renders Figure 10 from one size's vault histograms: rows are
// vaults, columns are latency intervals, intensity is the per-vault
// normalized count.
func heatmap(hists []*stats.Histogram) stats.Heatmap {
	m := stats.Heatmap{RowLabel: "vault", ColLabel: "latency (ns)"}
	for i := 0; i < 9; i++ {
		m.ColNames = append(m.ColNames, fmt.Sprintf("%5.0f", hists[0].BinCenter(i)))
	}
	for v, h := range hists {
		m.RowNames = append(m.RowNames, fmt.Sprintf("%d", v))
		m.Intensity = append(m.Intensity, h.Normalized())
	}
	return m
}

// transposeHeatmap renders Figure 12 from one size's vault histograms:
// rows are latency intervals, columns are vaults, each row normalized by
// its own maximum (as the paper does).
func transposeHeatmap(hists []*stats.Histogram) stats.Heatmap {
	m := stats.Heatmap{RowLabel: "lat (ns)", ColLabel: "vault"}
	for v := range hists {
		m.ColNames = append(m.ColNames, fmt.Sprintf("%2d", v))
	}
	for bin := 0; bin < 9; bin++ {
		m.RowNames = append(m.RowNames, fmt.Sprintf("%.0f", hists[0].BinCenter(bin)))
		row := make([]float64, len(hists))
		var max float64
		for v, h := range hists {
			row[v] = float64(h.Bins()[bin])
			if row[v] > max {
				max = row[v]
			}
		}
		if max > 0 {
			for v := range row {
				row[v] /= max
			}
		}
		m.Intensity = append(m.Intensity, row)
	}
	return m
}

// result renders per-size summary statistics plus the vault-position
// correlation, the paper's headline claim, and the Figure 10 and 12
// heatmaps as text.
func (r vaultComboResult) result() hmcsim.Result {
	mean := hmcsim.Series{Name: "mean-latency", Unit: "ns"}
	sigma := hmcsim.Series{Name: "stddev-latency", Unit: "ns"}
	span := hmcsim.Series{Name: "range-latency", Unit: "ns"}
	corr := hmcsim.Series{Name: "vault-position-correlation", Unit: "pearson"}
	t := table{header: []string{"Size", "Mean (ns)", "StdDev (ns)", "Range (ns)"}}
	var fig10, fig12 string
	for _, size := range sizes {
		all := r.pooled(size)
		m, s, rng := all.Mean(), all.StdDev(), all.Max()-all.Min()
		x := float64(size)
		mean.Points = append(mean.Points, hmcsim.Point{X: x, Y: m})
		sigma.Points = append(sigma.Points, hmcsim.Point{X: x, Y: s})
		span.Points = append(span.Points, hmcsim.Point{X: x, Y: rng})
		corr.Points = append(corr.Points, hmcsim.Point{X: x, Y: r.correlation(size)})
		t.addRow(fmt.Sprintf("%dB", size),
			fmt.Sprintf("%.0f", m),
			fmt.Sprintf("%.1f", s),
			fmt.Sprintf("%.0f", rng))
		hists := r.vaultHistograms(size)
		fig10 += fmt.Sprintf("\nFigure 10 heatmap, %dB (rows=vaults, cols=latency bins):\n%s",
			size, heatmap(hists).Render())
		fig12 += fmt.Sprintf("\nFigure 12 heatmap, %dB (rows=latency bins, cols=vaults):\n%s",
			size, transposeHeatmap(hists).Render())
	}
	text := fmt.Sprintf("Figures 10-12: %d four-vault combinations per size\n", r.combos) +
		"Figure 11: average and standard deviation across vaults\n" + t.String() + fig10 + fig12
	return hmcsim.Result{Series: []hmcsim.Series{mean, sigma, span, corr}, Text: text}
}
