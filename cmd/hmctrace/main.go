// Command hmctrace generates memory trace files for the multi-port
// stream firmware model: random or sequential reads/writes confined to a
// structural subset of the cube. It is a thin flag wrapper over the
// public hmcsim.TraceSpec generator.
//
// A random trace has exactly the addresses hmcsim.System.RandomTrace
// draws over the same pattern and seed, whatever -writes is: both
// follow the GUPS firmware's address law, and the write coin has a
// stream of its own. Traces written by versions that drew the write
// coin from the address stream do not regenerate from their flags:
// random addresses differ from the second request on, and with
// -writes strictly between 0 and 1 so do the directions.
//
// Usage:
//
//	hmctrace -n 1000 -size 64 -vaults 4 [-banks 2] [-writes 0.25] [-seq] [-seed 7] > trace.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"hmcsim"
	"hmcsim/internal/trace"
)

func main() {
	n := flag.Int("n", 1000, "number of requests")
	size := flag.Int("size", 64, "request size in bytes (16..128, flit multiple)")
	vaults := flag.Int("vaults", 16, "confine to the first N vaults (power of two)")
	banks := flag.Int("banks", 0, "confine to the first N banks of vault 0 (power of two; overrides -vaults)")
	writes := flag.Float64("writes", 0, "fraction of writes (0..1)")
	seq := flag.Bool("seq", false, "sequential instead of random addresses")
	seed := flag.Uint64("seed", 1, "RNG seed")
	block := flag.Int("block", 128, "address-interleave block size")
	flag.Parse()

	reqs, err := hmcsim.TraceSpec{
		N:          *n,
		Size:       *size,
		Vaults:     *vaults,
		Banks:      *banks,
		Writes:     *writes,
		Sequential: *seq,
		Seed:       *seed,
		BlockSize:  *block,
	}.Generate()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hmctrace:", err)
		os.Exit(2)
	}
	if err := trace.Write(os.Stdout, reqs); err != nil {
		fmt.Fprintln(os.Stderr, "hmctrace:", err)
		os.Exit(1)
	}
}
