// Traffic example: sweep zipf skew against a single cube and find the
// latency knee — the skew at which the hottest blocks stop fitting the
// cube's bank-level parallelism and read latency takes off. Each point
// is an independent seeded System running System.RunTraffic, so the
// sweep parallelizes across CPUs with bit-identical results.
//
//	go run ./examples/traffic [-workers N] [-ports N] [-size B]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"hmcsim"
)

func main() {
	workers := flag.Int("workers", 0, "fan-out; 0 = NumCPU, 1 = sequential")
	ports := flag.Int("ports", 9, "active traffic ports")
	size := flag.Int("size", 128, "request size in bytes")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Fail fast on invalid flags instead of panicking mid-sweep.
	if *ports < 1 || *ports > 9 {
		fmt.Fprintf(os.Stderr, "-ports %d out of range [1, 9]\n", *ports)
		os.Exit(2)
	}
	if err := (hmcsim.TrafficSpec{Pattern: hmcsim.TrafficZipf}).ValidateFor(*size); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// 0.01 stands in for "uniform": a literal 0 would compile as the
	// 0.99 library default.
	thetas := []float64{0.01, 0.3, 0.6, 0.9, 1.1, 1.3, 1.5, 1.7, 1.9}

	type point struct {
		Theta    float64
		GBps     float64
		AvgLatNs float64
	}
	points := hmcsim.Sweep(ctx, *workers, len(thetas), func(i int) point {
		sys := hmcsim.NewSystem(hmcsim.DefaultConfig())
		r, err := sys.RunTraffic(hmcsim.TrafficRunSpec{
			Ports:   *ports,
			Size:    *size,
			Traffic: hmcsim.TrafficSpec{Pattern: hmcsim.TrafficZipf, ZipfTheta: thetas[i]},
			Warmup:  15 * hmcsim.Microsecond,
			Window:  60 * hmcsim.Microsecond,
		})
		if err != nil {
			panic(err) // the flags were checked above
		}
		return point{Theta: thetas[i], GBps: r.Bandwidth.GBpsValue(), AvgLatNs: r.AvgLat.Nanoseconds()}
	})
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "interrupted")
		os.Exit(1)
	}

	fmt.Printf("zipf skew sweep: %d ports x %d B, one 4 GB cube\n\n", *ports, *size)
	fmt.Printf("%-6s  %-10s  %-12s\n", "theta", "BW (GB/s)", "avg lat (ns)")
	base := points[0].AvgLatNs
	knee := -1.0
	for _, p := range points {
		marker := ""
		if knee < 0 && p.AvgLatNs > 1.5*base {
			knee = p.Theta
			marker = "  <- latency knee"
		}
		fmt.Printf("%-6.2f  %-10.2f  %-12.0f%s\n", p.Theta, p.GBps, p.AvgLatNs, marker)
	}
	fmt.Println()
	if knee < 0 {
		fmt.Println("no knee: latency stayed within 1.5x of the uniform baseline")
		return
	}
	fmt.Printf("latency knee at theta ~ %.2f: beyond it the hot blocks' banks\n", knee)
	fmt.Println("saturate and queueing dominates, the skew analogue of the paper's")
	fmt.Println("bank-mask patterns (Figure 6).")
}
