// QoS example: reproduce the paper's Section IV-C scenario in miniature.
// A latency-sensitive stream shares the cube with three background
// streams. Mapping the sensitive stream to its own vault (the paper's
// recommendation) protects its tail latency; colliding with the
// background traffic inflates it. PlayStreams replays the four traces
// at once, as the paper's multi-port stream firmware does, and each
// port's monitor reports its latencies.
package main

import (
	"fmt"

	"hmcsim"
)

func run(sensitiveVault int) (avgNs, maxNs float64) {
	sys := hmcsim.NewSystem(hmcsim.DefaultConfig())
	const backgroundVault = 2
	const n = 800

	traces := make([][]hmcsim.Request, 4)
	// Three background ports hammer vault 2 with large reads.
	for i := 0; i < 3; i++ {
		traces[i] = sys.RandomTrace(n, 128, sys.SingleVault(backgroundVault), uint64(i+1))
	}
	// The latency-sensitive stream uses small requests (better QoS per
	// Section IV-D) on its own vault - or collides, depending on the
	// argument.
	traces[3] = sys.RandomTrace(n, 16, sys.SingleVault(sensitiveVault), 99)

	sensitive := &sys.PlayStreams(traces)[3].Mon
	return sensitive.AvgLat().Nanoseconds(), sensitive.MaxLat.Nanoseconds()
}

func main() {
	collideAvg, collideMax := run(2) // shares the background vault
	privateAvg, privateMax := run(9) // private vault

	fmt.Println("Latency-sensitive 16B stream vs 3x 128B background streams:")
	fmt.Printf("  colliding on the background vault: avg %6.0f ns  max %6.0f ns\n", collideAvg, collideMax)
	fmt.Printf("  mapped to a private vault:         avg %6.0f ns  max %6.0f ns\n", privateAvg, privateMax)
	fmt.Printf("  tail-latency protection:           %.1fx\n", collideMax/privateMax)
	fmt.Println("\nAs Section IV-C concludes, reserving vaults for high-priority")
	fmt.Println("traffic is an effective QoS lever in packet-switched memories.")
}
