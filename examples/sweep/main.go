// Sweep example: fan independent simulations out across every CPU and
// emit a machine-readable JSON result. Each job builds its own System
// and calls its RunGUPS, so results are bit-identical to a sequential
// run — rerun with -workers 1 and diff the output to check.
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
	flag.Parse()

	// Ctrl-C stops the sweep from scheduling further points.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sizes := []int{16, 32, 64, 128}
	patterns := []hmcsim.PatternSpec{
		{Name: "1 bank", Banks: 1},
		{Name: "16 vaults"},
	}

	// One independent system per (size, pattern) cell.
	points := hmcsim.Sweep2(ctx, *workers, sizes, patterns, func(size int, ps hmcsim.PatternSpec) hmcsim.Point {
		sys := hmcsim.NewSystem(hmcsim.DefaultConfig())
		r := sys.RunGUPS(hmcsim.GUPSSpec{
			Ports: 9, Size: size, Pattern: ps.Build(sys),
			Warmup: 15 * hmcsim.Microsecond, Window: 40 * hmcsim.Microsecond,
		})
		return hmcsim.Point{Label: ps.Name, X: float64(size), Y: r.Bandwidth.GBpsValue()}
	})

	res := hmcsim.Result{
		Name:   "sweep-example",
		Title:  "Bandwidth of the best and worst access pattern per request size",
		Series: []hmcsim.Series{{Name: "bandwidth", Unit: "GB/s", Points: points}},
	}
	out, err := res.JSON()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Stdout.Write(append(out, '\n'))
}
