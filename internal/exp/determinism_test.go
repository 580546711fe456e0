package exp

import (
	"bytes"
	"context"
	"testing"
)

// runJSON executes one registered experiment and returns its JSON bytes.
func runJSON(t *testing.T, name string, o Options) []byte {
	t.Helper()
	res, err := Run(context.Background(), name, o)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestDeterminism is the regression guard for the parallel sweep path:
// with a fixed seed, the JSON output must be byte-identical across
// repeated runs and across sequential vs. parallel execution. Workers
// is excluded from the marshaled options precisely so this holds.
func TestDeterminism(t *testing.T) {
	for _, name := range []string{"fig14", "ddr", "traffic-zipf", "traffic-burst"} {
		seq := Options{Quick: true, Seed: 7, Workers: 1}
		par := Options{Quick: true, Seed: 7, Workers: 4}

		first := runJSON(t, name, seq)
		again := runJSON(t, name, seq)
		if !bytes.Equal(first, again) {
			t.Errorf("%s: two sequential runs with the same seed differ", name)
		}
		parallel := runJSON(t, name, par)
		if !bytes.Equal(first, parallel) {
			t.Errorf("%s: parallel sweep output differs from sequential", name)
		}
	}
}
