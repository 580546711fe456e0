// Pagesweep example: demonstrate the address-interleaving insight of
// Sections II-A and IV-F. Sequentially streaming 4 KB OS pages spreads
// 128 B blocks over all sixteen vaults (vault-level parallelism first,
// then bank-level), so sequential traffic avoids the vault bandwidth
// bottleneck that a vault-confined sweep hits. Two linear System.RunGUPS
// runs, over the whole cube and over one vault, show the difference.
package main

import (
	"fmt"

	"hmcsim"
)

func main() {
	sys := hmcsim.NewSystem(hmcsim.DefaultConfig())

	// Show where one OS page lands.
	spread := sys.Map.PageVaults(0x4000_3000)
	fmt.Println("One 4 KB OS page maps to:")
	fmt.Printf("  %d vaults, %d banks in each (low-order interleaving, Figure 3)\n\n",
		len(spread), len(spread[0]))

	// Sequential GUPS sweep over the whole cube: pages naturally stripe
	// across vaults.
	seq := sys.RunGUPS(hmcsim.GUPSSpec{
		Ports: 9, Size: 128, Pattern: hmcsim.AllVaults.Build(sys), Linear: true,
		Warmup: 30 * hmcsim.Microsecond, Window: 100 * hmcsim.Microsecond,
	})

	// The anti-pattern: the same request stream forced into one vault
	// (e.g. a bad custom mapping), which serializes on the vault's
	// ~10 GB/s TSV data path.
	sys2 := hmcsim.NewSystem(hmcsim.DefaultConfig())
	confined := sys2.RunGUPS(hmcsim.GUPSSpec{
		Ports: 9, Size: 128, Pattern: sys2.Vaults(1), Linear: true,
		Warmup: 30 * hmcsim.Microsecond, Window: 100 * hmcsim.Microsecond,
	})

	fmt.Println("Sequential 128B streaming, nine ports:")
	fmt.Printf("  page-interleaved (all vaults): %.2f GB/s, avg latency %5.0f ns\n",
		seq.Bandwidth.GBpsValue(), seq.AvgLat.Nanoseconds())
	fmt.Printf("  confined to one vault:         %.2f GB/s, avg latency %5.0f ns\n",
		confined.Bandwidth.GBpsValue(), confined.AvgLat.Nanoseconds())
	fmt.Printf("  interleaving advantage:        %.1fx bandwidth\n",
		seq.Bandwidth.GBpsValue()/confined.Bandwidth.GBpsValue())
	fmt.Println("\nMapping accesses across vaults first, then banks, is the key to")
	fmt.Println("bandwidth in NoC-based stacked memories (Section IV-F).")
}
