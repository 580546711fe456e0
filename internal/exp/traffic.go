package exp

import (
	"context"
	"fmt"

	"hmcsim"
)

// trafficPoint is one measured traffic configuration.
type trafficPoint struct {
	label    string
	x        float64
	gbps     float64
	avgLatNs float64
	maxLatNs float64
}

// trafficResult is a traffic sweep's points with the title and x-axis
// header its table prints.
type trafficResult struct {
	title, xHeader string
	points         []trafficPoint
}

// runTraffic measures one traffic workload on a fresh system. It
// panics on an invalid spec: the CLI and the daemon run Spec.Validate
// first, which accepts exactly the specs that compile at 128 B.
func runTraffic(ctx context.Context, o Options, spec hmcsim.TrafficSpec, label string, x float64) trafficPoint {
	r, err := o.NewSystemCtx(ctx).RunTraffic(hmcsim.TrafficRunSpec{
		Ports:   9,
		Size:    128,
		Traffic: spec,
		Warmup:  o.Warmup(),
		Window:  o.Window(),
	})
	if err != nil {
		panic(fmt.Sprintf("exp: invalid traffic spec: %v", err))
	}
	return trafficPoint{
		label:    label,
		x:        x,
		gbps:     r.Bandwidth.GBpsValue(),
		avgLatNs: r.AvgLat.Nanoseconds(),
		maxLatNs: r.MaxLat.Nanoseconds(),
	}
}

// result renders the points as the standard two series (bandwidth,
// avg-latency) plus the text table.
func (r trafficResult) result() hmcsim.Result {
	bw := hmcsim.Series{Name: "bandwidth", Unit: "GB/s"}
	avg := hmcsim.Series{Name: "avg-latency", Unit: "ns"}
	tab := table{header: []string{r.xHeader, "Traffic", "BW (GB/s)", "Avg lat (ns)", "Max lat (ns)"}}
	for _, p := range r.points {
		bw.Points = append(bw.Points, hmcsim.Point{Label: p.label, X: p.x, Y: p.gbps})
		avg.Points = append(avg.Points, hmcsim.Point{Label: p.label, X: p.x, Y: p.avgLatNs})
		tab.addRow(
			fmt.Sprintf("%g", p.x),
			p.label,
			fmt.Sprintf("%.2f", p.gbps),
			fmt.Sprintf("%.0f", p.avgLatNs),
			fmt.Sprintf("%.0f", p.maxLatNs))
	}
	return hmcsim.Result{Series: []hmcsim.Series{bw, avg}, Text: r.title + "\n" + tab.String()}
}

// zipfThetas is the skew sweep of the traffic-zipf experiment.
// It starts at 0.01 (an explicit near-uniform point — a literal 0 would
// compile as the 0.99 default) and runs past 1.5, where the hottest
// block alone draws a bank-saturating share of the traffic.
var zipfThetas = []float64{0.01, 0.5, 0.9, 1.2, 1.5, 1.8}

// trafficZipf sweeps zipf skew at full port count: theta 0 is uniform
// over the working set, and as theta grows the hot ranks concentrate
// onto ever fewer blocks — and, through the cube's low-order
// interleaving, onto ever fewer banks — reproducing the pattern-mask
// latency knee of Figure 6 from a popularity distribution instead of
// an address mask.
func trafficZipf(ctx context.Context, o Options) trafficResult {
	points := hmcsim.Sweep(ctx, o.Workers, len(zipfThetas), func(i int) trafficPoint {
		theta := zipfThetas[i]
		return runTraffic(ctx, o, hmcsim.TrafficSpec{Pattern: hmcsim.TrafficZipf, ZipfTheta: theta},
			fmt.Sprintf("zipf %.2f", theta), theta)
	})
	return trafficResult{"Synthetic traffic: read latency and bandwidth vs zipf skew", "Theta", points}
}

// mixFractions is the write-fraction sweep of traffic-mix.
var mixFractions = []float64{0, 0.25, 0.5, 0.75, 1}

// trafficMix sweeps the markov read/write mix from read-only to
// write-only uniform traffic, revisiting Section IV-F's bi-directional
// link asymmetry with a scripted mixer instead of the GUPS alternator.
func trafficMix(ctx context.Context, o Options) trafficResult {
	points := hmcsim.Sweep(ctx, o.Workers, len(mixFractions), func(i int) trafficPoint {
		frac := mixFractions[i]
		return runTraffic(ctx, o, hmcsim.TrafficSpec{
			Pattern:       hmcsim.TrafficUniform,
			WriteFraction: frac,
			MixRunLength:  8,
		}, fmt.Sprintf("wr %.2f", frac), frac)
	})
	return trafficResult{"Synthetic traffic: markov read/write mix sweep", "WriteFrac", points}
}

// burstRates is the per-port average offered load sweep (GB/s) of
// traffic-burst.
var burstRates = []float64{0.5, 1, 1.5, 2, 2.5}

// trafficBurst compares steady open-loop injection against 50%-duty
// on/off bursts at the same average offered load: the burst's on-phase
// runs at twice the steady rate, so equal X positions carry equal
// offered bytes but the bursty series pays queueing latency as its
// peaks cross the controller ceiling.
func trafficBurst(ctx context.Context, o Options) trafficResult {
	points := hmcsim.Sweep2(ctx, o.Workers, burstRates, []bool{false, true},
		func(rate float64, burst bool) trafficPoint {
			offered := 9 * rate // aggregate across the nine ports
			if !burst {
				return runTraffic(ctx, o, hmcsim.TrafficSpec{
					Discipline: hmcsim.TrafficOpenLoop,
					RateGBps:   rate,
				}, "steady", offered)
			}
			return runTraffic(ctx, o, hmcsim.TrafficSpec{
				Discipline: hmcsim.TrafficOpenLoop,
				Phases: []hmcsim.TrafficPhase{
					{DurationUs: 10, RateGBps: 2 * rate},
					{DurationUs: 10, Off: true},
				},
			}, "burst", offered)
		})
	return trafficResult{"Synthetic traffic: steady vs 50%-duty burst injection", "Offered GB/s", points}
}

// trafficSpec runs exactly the traffic spec in options, or the zero
// spec (uniform random read-only closed-loop traffic over the whole
// cube) when options carry none, making arbitrary user-composed traffic
// a first-class experiment: submittable to hmcsimd, cached under its
// Spec key, and sweepable by seed like any figure.
func trafficSpec(ctx context.Context, o Options) trafficResult {
	var spec hmcsim.TrafficSpec
	if o.Traffic != nil {
		spec = *o.Traffic
	}
	p := runTraffic(ctx, o, spec, spec.Name(), 0)
	title := fmt.Sprintf("Synthetic traffic: %s, 9 ports x 128 B", spec.Name())
	return trafficResult{title, "X", []trafficPoint{p}}
}
