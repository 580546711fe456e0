package exp

import (
	"context"
	"fmt"

	"hmcsim"
	"hmcsim/internal/addr"
	"hmcsim/internal/host"
)

// fig9Point is one bar of Figure 9: the maximum latency observed across
// four stream ports when three of them are pinned to one vault and the
// fourth targets sweepVault.
type fig9Point struct {
	pinnedVault int
	sweepVault  int
	size        int
	maxLatNs    float64
}

// fig9Result holds both series (pinned vault 1 and pinned vault 5).
type fig9Result []fig9Point

// fig9 reproduces the QoS case study of Section IV-C: four stream ports
// generate reads, three always to the pinned vault, the fourth sweeping
// every vault. When the fourth collides with the pinned vault the
// maximum latency jumps; elsewhere it varies with NoC position and
// traffic interleaving.
func fig9(ctx context.Context, o Options) fig9Result {
	n := 600
	if o.Quick {
		n = 200
	}
	pinnedVaults := []int{1, 5}
	// Each (pinned, size) pair replays its sixteen sweep positions on
	// one shared system; the pairs themselves are independent.
	perJob := hmcsim.Sweep2(ctx, o.Workers, pinnedVaults, sizes, func(pinned, size int) []fig9Point {
		sys := o.NewSystemCtx(ctx)
		points := make([]fig9Point, 0, addr.Vaults)
		for sv := 0; sv < addr.Vaults; sv++ {
			traces := make([][]host.Request, 4)
			for i := 0; i < 3; i++ {
				traces[i] = sys.RandomTrace(n, size, sys.SingleVault(pinned),
					o.Seed+uint64(i*37+sv))
			}
			traces[3] = sys.RandomTrace(n, size, sys.SingleVault(sv),
				o.Seed+uint64(991+sv))
			ports := sys.PlayStreams(traces)
			var max float64
			for _, p := range ports {
				if m := p.Mon.MaxLat.Nanoseconds(); m > max {
					max = m
				}
			}
			points = append(points, fig9Point{
				pinnedVault: pinned,
				sweepVault:  sv,
				size:        size,
				maxLatNs:    max,
			})
		}
		return points
	})
	var res fig9Result
	for _, pts := range perJob {
		res = append(res, pts...)
	}
	return res
}

// collisionPenalty returns maxLat(sweep==pinned) divided by the mean of
// maxLat over non-colliding sweep vaults, the "up to 40%" headline.
func (r fig9Result) collisionPenalty(pinned, size int) float64 {
	var others, collide float64
	for _, p := range r {
		if p.pinnedVault != pinned || p.size != size {
			continue
		}
		if p.sweepVault == pinned {
			collide = p.maxLatNs
		} else {
			others += p.maxLatNs
		}
	}
	mean := others / float64(addr.Vaults-1)
	if mean == 0 {
		return 0
	}
	return collide / mean
}

// result renders a max-latency series with points labeled
// "pinnedN/sizeB" and X = sweep vault, plus the derived collision
// penalties, and one table per pinned vault.
func (r fig9Result) result() hmcsim.Result {
	max := hmcsim.Series{Name: "max-latency", Unit: "ns"}
	for _, p := range r {
		max.Points = append(max.Points, hmcsim.Point{
			Label: fmt.Sprintf("pinned%d/%dB", p.pinnedVault, p.size),
			X:     float64(p.sweepVault),
			Y:     p.maxLatNs,
		})
	}
	pen := hmcsim.Series{Name: "collision-penalty", Unit: "x"}
	var text string
	for _, pinned := range []int{1, 5} {
		for _, size := range sizes {
			pen.Points = append(pen.Points, hmcsim.Point{
				Label: fmt.Sprintf("pinned%d", pinned),
				X:     float64(size),
				Y:     r.collisionPenalty(pinned, size),
			})
		}
		t := table{header: []string{"Sweep vault", "16B (ns)", "32B (ns)", "64B (ns)", "128B (ns)"}}
		for v := 0; v < addr.Vaults; v++ {
			row := []string{fmt.Sprintf("%d", v)}
			for _, size := range sizes {
				for _, p := range r {
					if p.pinnedVault == pinned && p.sweepVault == v && p.size == size {
						mark := ""
						if v == pinned {
							mark = "*"
						}
						row = append(row, fmt.Sprintf("%.0f%s", p.maxLatNs, mark))
					}
				}
			}
			t.addRow(row...)
		}
		text += fmt.Sprintf("Figure 9: maximum latency, 3 ports pinned to vault %d (* = collision)\n%s\n", pinned, t.String())
	}
	return hmcsim.Result{Series: []hmcsim.Series{max, pen}, Text: text}
}
