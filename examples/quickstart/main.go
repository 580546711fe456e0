// Quickstart: build the AC-510 + HMC 1.1 system, blast it with random
// reads from all nine GUPS ports through the public hmcsim.GUPS
// workload, and print what the monitoring logic sees. This is the
// smallest end-to-end use of the library.
package main

import (
	"fmt"

	"hmcsim"
)

func main() {
	sys := hmcsim.NewSystem(hmcsim.DefaultConfig())

	m := hmcsim.GUPS{
		Ports:   9,                // all nine FPGA ports
		Size:    128,              // 128 B read requests
		Pattern: hmcsim.AllVaults, // random over the whole 4 GB cube
		Warmup:  30 * hmcsim.Microsecond,
		Window:  100 * hmcsim.Microsecond,
	}.Run(sys)

	fmt.Println("HMC 1.1 under full random read load:")
	fmt.Printf("  reads completed:      %d in %.0f us\n", m.Reads, m.WindowNs/1000)
	fmt.Printf("  counted bandwidth:    %.2f GB/s (request+response bytes)\n", m.GBps)
	fmt.Printf("  read latency:         avg %.0f ns  min %.0f ns  max %.0f ns\n",
		m.AvgLatNs, m.MinLatNs, m.MaxLatNs)
	fmt.Printf("  in-flight inside cube: %.0f transactions (time-averaged)\n",
		m.HMCOutstanding)

	// The same traffic confined to a single vault hits the ~10 GB/s
	// internal vault bandwidth instead of the external link ceiling.
	sys2 := hmcsim.NewSystem(hmcsim.DefaultConfig())
	one := hmcsim.GUPS{
		Ports:   9,
		Size:    128,
		Pattern: hmcsim.PatternSpec{Name: "1 vault", Vaults: 1},
		Warmup:  30 * hmcsim.Microsecond,
		Window:  100 * hmcsim.Microsecond,
	}.Run(sys2)
	fmt.Println("\nSame load confined to one vault:")
	fmt.Printf("  counted bandwidth:    %.2f GB/s (vault TSV bound)\n", one.GBps)
	fmt.Printf("  read latency:         avg %.0f ns\n", one.AvgLatNs)
}
