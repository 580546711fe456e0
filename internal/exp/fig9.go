package exp

import (
	"context"
	"fmt"

	"hmcsim"
	"hmcsim/internal/addr"
	"hmcsim/internal/host"
)

// Fig9Point is one bar of Figure 9: the maximum latency observed across
// four stream ports when three of them are pinned to one vault and the
// fourth targets SweepVault.
type Fig9Point struct {
	PinnedVault int
	SweepVault  int
	Size        int
	MaxLatNs    float64
	AvgLatNs    float64
}

// Fig9Result holds both series (pinned vault 1 and pinned vault 5).
type Fig9Result struct {
	Points []Fig9Point
}

// Fig9 reproduces the QoS case study of Section IV-C: four stream ports
// generate reads, three always to the pinned vault, the fourth sweeping
// every vault. When the fourth collides with the pinned vault the
// maximum latency jumps; elsewhere it varies with NoC position and
// traffic interleaving.
func Fig9(ctx context.Context, o Options) Fig9Result {
	n := 600
	if o.Quick {
		n = 200
	}
	sweep := addr.Vaults
	pinnedVaults := []int{1, 5}
	// Each (pinned, size) pair replays its sixteen sweep positions on
	// one shared system; the pairs themselves are independent.
	perJob := hmcsim.Sweep2(ctx, o.Workers, pinnedVaults, Sizes, func(pinned, size int) []Fig9Point {
		sys := o.NewSystemCtx(ctx)
		points := make([]Fig9Point, 0, sweep)
		for sv := 0; sv < sweep; sv++ {
			traces := make([][]host.Request, 4)
			for i := 0; i < 3; i++ {
				traces[i] = sys.RandomTrace(n, size, sys.SingleVault(pinned),
					o.Seed+uint64(i*37+sv))
			}
			traces[3] = sys.RandomTrace(n, size, sys.SingleVault(sv),
				o.Seed+uint64(991+sv))
			ports := sys.PlayStreams(traces)
			var max, agg float64
			var reads uint64
			for _, p := range ports {
				if m := p.Mon.MaxLat.Nanoseconds(); m > max {
					max = m
				}
				agg += p.Mon.AggLat.Nanoseconds()
				reads += p.Mon.Reads
			}
			points = append(points, Fig9Point{
				PinnedVault: pinned,
				SweepVault:  sv,
				Size:        size,
				MaxLatNs:    max,
				AvgLatNs:    agg / float64(reads),
			})
		}
		return points
	})
	var res Fig9Result
	for _, pts := range perJob {
		res.Points = append(res.Points, pts...)
	}
	return res
}

// Series returns max-latency bars indexed by sweep vault for one pinned
// vault and size.
func (r Fig9Result) Series(pinned, size int) []float64 {
	out := make([]float64, addr.Vaults)
	for _, p := range r.Points {
		if p.PinnedVault == pinned && p.Size == size {
			out[p.SweepVault] = p.MaxLatNs
		}
	}
	return out
}

// CollisionPenalty returns maxLat(sweep==pinned) divided by the mean of
// maxLat over non-colliding sweep vaults, the "up to 40%" headline.
func (r Fig9Result) CollisionPenalty(pinned, size int) float64 {
	series := r.Series(pinned, size)
	var others float64
	var collide float64
	for v, m := range series {
		if v == pinned {
			collide = m
		} else {
			others += m
		}
	}
	mean := others / float64(len(series)-1)
	if mean == 0 {
		return 0
	}
	return collide / mean
}

func (r Fig9Result) String() string {
	var out string
	for _, pinned := range []int{1, 5} {
		t := table{header: []string{"Sweep vault", "16B (ns)", "32B (ns)", "64B (ns)", "128B (ns)"}}
		for v := 0; v < addr.Vaults; v++ {
			row := []string{fmt.Sprintf("%d", v)}
			for _, size := range Sizes {
				for _, p := range r.Points {
					if p.PinnedVault == pinned && p.SweepVault == v && p.Size == size {
						mark := ""
						if v == pinned {
							mark = "*"
						}
						row = append(row, fmt.Sprintf("%.0f%s", p.MaxLatNs, mark))
					}
				}
			}
			t.addRow(row...)
		}
		out += fmt.Sprintf("Figure 9: maximum latency, 3 ports pinned to vault %d (* = collision)\n%s\n", pinned, t.String())
	}
	return out
}

// Result converts to the structured form: max-latency series with
// points labeled "pinnedN/sizeB" and X = sweep vault, plus the derived
// collision penalties.
func (r Fig9Result) Result() hmcsim.Result {
	max := hmcsim.Series{Name: "max-latency", Unit: "ns"}
	for _, p := range r.Points {
		max.Points = append(max.Points, hmcsim.Point{
			Label: fmt.Sprintf("pinned%d/%dB", p.PinnedVault, p.Size),
			X:     float64(p.SweepVault),
			Y:     p.MaxLatNs,
		})
	}
	pen := hmcsim.Series{Name: "collision-penalty", Unit: "x"}
	for _, pinned := range []int{1, 5} {
		for _, size := range Sizes {
			pen.Points = append(pen.Points, hmcsim.Point{
				Label: fmt.Sprintf("pinned%d", pinned),
				X:     float64(size),
				Y:     r.CollisionPenalty(pinned, size),
			})
		}
	}
	return hmcsim.Result{Series: []hmcsim.Series{max, pen}, Text: r.String()}
}
