package hmcsim

import (
	"fmt"

	"hmcsim/internal/addr"
	"hmcsim/internal/packet"
	"hmcsim/internal/traffic"
)

// TraceSpec describes a synthetic trace: n requests of Size bytes
// confined to a structural subset of the cube. It is the programmatic
// form of the hmctrace CLI; System.PlayStreams replays what Generate
// returns. A random trace has exactly the addresses System.RandomTrace
// draws over the same pattern and seed, whatever Writes is.
type TraceSpec struct {
	N    int
	Size int
	// Vaults confines addresses to the first N vaults (0 or 16 = whole
	// cube); Banks, when positive, confines to the first N banks of
	// vault 0 and overrides Vaults.
	Vaults     int
	Banks      int
	Writes     float64 // fraction of writes in [0, 1]
	Sequential bool    // sequential instead of random addresses
	Seed       uint64  // RNG seed; 0 uses the RNG's fixed default
	BlockSize  int     // address-interleave block size; 0 means 128
}

// Generate materializes the trace.
func (t TraceSpec) Generate() ([]Request, error) {
	if t.N < 0 {
		return nil, fmt.Errorf("hmcsim: trace length %d is negative", t.N)
	}
	if !packet.ValidSize(t.Size) {
		return nil, fmt.Errorf("hmcsim: trace size %d must be a multiple of 16 in [16,128]", t.Size)
	}
	if !(t.Writes >= 0 && t.Writes <= 1) { // NaN fails both comparisons
		return nil, fmt.Errorf("hmcsim: write fraction %g outside [0, 1]", t.Writes)
	}
	block := t.BlockSize
	if block == 0 {
		block = 128
	}
	mapping, err := addr.NewMapping(block)
	if err != nil {
		return nil, err
	}
	mask := addr.AllAccess
	switch {
	case t.Banks > 0:
		mask, err = mapping.BanksMask(t.Banks)
	case t.Vaults > 0 && t.Vaults != addr.Vaults:
		mask, err = mapping.VaultsMask(t.Vaults)
	}
	if err != nil {
		return nil, err
	}
	// The addresses follow the GUPS law, as System.RandomTrace's do; the
	// write coin has its own stream, so Writes never moves an address.
	gen := traffic.GUPS(mask, t.Size, t.Seed, t.Sequential, traffic.ReadOnly)
	coin := traffic.NewRNG(t.Seed)
	reqs := make([]Request, t.N)
	for i := range reqs {
		a, _ := gen.Next()
		reqs[i] = Request{Addr: a, Size: t.Size, Write: coin.Float64() < t.Writes}
	}
	return reqs, nil
}
