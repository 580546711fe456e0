package exp

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"hmcsim"
)

// TestRegistryNames pins the registered set and its presentation order.
func TestRegistryNames(t *testing.T) {
	want := []string{
		"table1", "eq1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig13", "fig14", "ddr",
		"traffic-zipf", "traffic-mix", "traffic-burst", "traffic",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry has %d runners %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("runner %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestRunUnknown asserts experiment selection is an error, not an exit.
func TestRunUnknown(t *testing.T) {
	_, err := Run(ctx, "fig99", Options{Quick: true})
	if err == nil {
		t.Fatal("Run(fig99) succeeded, want error")
	}
	if !strings.Contains(err.Error(), "fig99") {
		t.Errorf("error %q does not name the unknown experiment", err)
	}
}

// cancelSweep is a sweep's output for TestRunCanceledMidSweepReturnsError.
type cancelSweep []float64

func (v cancelSweep) result() hmcsim.Result {
	s := hmcsim.Series{Name: "vals"}
	for i, y := range v {
		s.Points = append(s.Points, hmcsim.Point{X: float64(i), Y: y})
	}
	return hmcsim.Result{Series: []hmcsim.Series{s}}
}

// TestRunCanceledMidSweepReturnsError is the regression test for the
// partial-result bug: a context cancelled mid-sweep used to yield a
// Result whose unscheduled sweep slots were zero values, which `-format
// json` then serialized as real data points. Every registered
// experiment now returns the context's error instead.
func TestRunCanceledMidSweepReturnsError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// An entry whose sweep cancels itself partway: points 0 and 1 run,
	// the rest keep their zero values — exactly the shape a Ctrl-C
	// leaves behind.
	e := entry{name: "cancelcheck", title: "cancels itself mid-sweep",
		run: sweep(func(ctx context.Context, o Options) cancelSweep {
			return hmcsim.Sweep(ctx, 1, 8, func(i int) float64 {
				if i == 1 {
					cancel()
				}
				return float64(i + 1)
			})
		})}
	res, err := e.Run(ctx, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.Series) != 0 {
		t.Fatalf("partially-zeroed result returned alongside the error: %+v", res)
	}
}

// TestAllRegisteredRunnersObserveCancellation: the central check covers
// every registered experiment — a pre-cancelled context means an error,
// never a zero-filled Result.
func TestAllRegisteredRunnersObserveCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range Runners() {
		res, err := Run(ctx, r.Name(), Options{Quick: true, Workers: 1})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", r.Name(), err)
		}
		if len(res.Series) != 0 {
			t.Errorf("%s: cancelled run returned %d series", r.Name(), len(res.Series))
		}
	}
}

// TestAllRunnersQuick reads every registered experiment's quick-mode
// Result (run once through the registry and shared with TestABGuard)
// and checks each result is well-formed and JSON-marshalable — the
// contract `hmcsim -exp all -format json` relies on.
func TestAllRunnersQuick(t *testing.T) {
	for _, r := range Runners() {
		res := quickResult(t, r.Name())
		if res.Name != r.Name() {
			t.Errorf("%s: result name %q", r.Name(), res.Name)
		}
		if res.Title != r.Describe() {
			t.Errorf("%s: result title %q != %q", r.Name(), res.Title, r.Describe())
		}
		if len(res.Series) == 0 {
			t.Errorf("%s: no series", r.Name())
		}
		for _, s := range res.Series {
			if len(s.Points) == 0 {
				t.Errorf("%s: series %q empty", r.Name(), s.Name)
			}
		}
		if res.String() == "" {
			t.Errorf("%s: empty text rendering", r.Name())
		}
		blob, err := res.JSON()
		if err != nil {
			t.Fatalf("%s: marshal: %v", r.Name(), err)
		}
		var back hmcsim.Result
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("%s: round-trip: %v", r.Name(), err)
		}
		if back.Name != res.Name || len(back.Series) != len(res.Series) {
			t.Errorf("%s: JSON round-trip lost data", r.Name())
		}
	}
}
