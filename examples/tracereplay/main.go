// Tracereplay: drive the multi-port stream model from trace files, the
// workflow of the paper's Figure 5b. Generates a trace (or reads the one
// you pass as an argument), replays it on four ports at once through
// System.PlayStreams, and prints each port's monitoring statistics.
//
//	go run ./examples/tracereplay            # synthetic trace
//	go run ./examples/tracereplay trace.txt  # your trace on every port
package main

import (
	"fmt"
	"log"
	"os"

	"hmcsim"
	"hmcsim/internal/trace"
)

func main() {
	sys := hmcsim.NewSystem(hmcsim.DefaultConfig())

	var reqs []hmcsim.Request
	if len(os.Args) > 1 {
		f, err := os.Open(os.Args[1])
		if err != nil {
			log.Fatal(err)
		}
		reqs, err = trace.Read(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if len(reqs) == 0 {
			log.Fatalf("%s holds no requests", os.Args[1])
		}
		fmt.Printf("Replaying %s (%d requests) on 4 ports\n", os.Args[1], len(reqs))
	} else {
		// Synthetic: 64 B blocks from two vaults with a quarter writes,
		// generated by the same TraceSpec the hmctrace CLI wraps.
		var err error
		reqs, err = hmcsim.TraceSpec{
			N: 500, Size: 64, Vaults: 2, Writes: 0.25, Seed: 1,
		}.Generate()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Replaying a synthetic trace (500 x 64B, 25% writes, 2 vaults) on 4 ports")
	}

	// Every port replays the same trace; the fresh system starts at
	// time 0, so the clock after the drain is the elapsed time.
	ports := sys.PlayStreams([][]hmcsim.Request{reqs, reqs, reqs, reqs})
	elapsed := sys.Eng.Now()
	fmt.Println("\nPer-port monitoring (as the firmware reports back to the host):")
	var bytes uint64
	for i, p := range ports {
		m := &p.Mon
		fmt.Printf("  port %d: reads=%-5d writes=%-5d lat avg/min/max = %6.0f/%6.0f/%6.0f ns\n",
			i, m.Reads, m.Writes, m.AvgLat().Nanoseconds(), m.MinLat.Nanoseconds(), m.MaxLat.Nanoseconds())
		bytes += m.CountedBytes
	}
	fmt.Printf("\nAggregate: %.2f GB/s over %.1f us of simulated time\n",
		float64(bytes)/elapsed.Seconds()/1e9, elapsed.Microseconds())
}
