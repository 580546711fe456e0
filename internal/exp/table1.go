package exp

import (
	"context"
	"fmt"

	"hmcsim"
	"hmcsim/internal/packet"
	"hmcsim/internal/phys"
)

// tableIRow is one payload size's entry of Table I: request/response
// sizes in flits for reads and writes, plus the derived link efficiency
// quoted in Section IV-A.
type tableIRow struct {
	size                int
	readReq, readResp   int // flits
	writeReq, writeResp int // flits
	readEfficiency      float64
}

type tableIResult []tableIRow

// tableI computes the table from the packet model.
func tableI(context.Context, Options) tableIResult {
	var rows tableIResult
	for _, size := range sizes {
		rows = append(rows, tableIRow{
			size:           size,
			readReq:        packet.RequestFlits(false, size),
			readResp:       packet.ResponseFlits(false, size),
			writeReq:       packet.RequestFlits(true, size),
			writeResp:      packet.ResponseFlits(true, size),
			readEfficiency: packet.Efficiency(size),
		})
	}
	return rows
}

// result renders packet sizes in flits and the derived read efficiency,
// X = request size.
func (rows tableIResult) result() hmcsim.Result {
	series := []hmcsim.Series{
		{Name: "read-req-flits", Unit: "flits"},
		{Name: "read-resp-flits", Unit: "flits"},
		{Name: "write-req-flits", Unit: "flits"},
		{Name: "write-resp-flits", Unit: "flits"},
		{Name: "read-efficiency", Unit: "fraction"},
	}
	t := table{header: []string{"Size", "RD req", "RD resp", "WR req", "WR resp", "RD efficiency"}}
	for _, row := range rows {
		x := float64(row.size)
		for i, y := range []float64{
			float64(row.readReq), float64(row.readResp),
			float64(row.writeReq), float64(row.writeResp),
			row.readEfficiency,
		} {
			series[i].Points = append(series[i].Points, hmcsim.Point{X: x, Y: y})
		}
		t.addRow(
			fmt.Sprintf("%dB", row.size),
			fmt.Sprintf("%d flit", row.readReq),
			fmt.Sprintf("%d flits", row.readResp),
			fmt.Sprintf("%d flits", row.writeReq),
			fmt.Sprintf("%d flit", row.writeResp),
			fmt.Sprintf("%.0f%%", row.readEfficiency*100),
		)
	}
	return hmcsim.Result{Series: series, Text: "Table I: HMC request/response read/write sizes\n" + t.String()}
}

// peakBandwidthResult reproduces Equation 1.
type peakBandwidthResult struct {
	links, lanes int
	laneGbps     float64
	peak         phys.Bandwidth
}

// peakBandwidth evaluates Equation 1 for the AC-510 configuration.
func peakBandwidth(context.Context, Options) peakBandwidthResult {
	return peakBandwidthResult{
		links:    2,
		lanes:    8,
		laneGbps: 15,
		peak:     phys.PeakBidirectional(2, 8, phys.Gbps(15)),
	}
}

func (r peakBandwidthResult) result() hmcsim.Result {
	return hmcsim.Result{
		Series: []hmcsim.Series{{
			Name: "peak-bandwidth", Unit: "GB/s",
			Points: []hmcsim.Point{{Label: "bi-directional", X: float64(r.links), Y: r.peak.GBpsValue()}},
		}},
		Text: fmt.Sprintf(
			"Equation 1: BWpeak = %d links x %d lanes/link x %.0f Gb/s x 2 duplex = %s",
			r.links, r.lanes, r.laneGbps, r.peak),
	}
}
