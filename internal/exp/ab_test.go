package exp

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"hmcsim"
)

// quickRuns memoises each registered runner's quick-mode Result, so
// the tests that only read it (TestABGuard, TestAllRunnersQuick) share
// one run per runner. Each name has its own sync.Once, so whichever
// test asks first runs it, in any test order.
var quickRuns sync.Map // runner name -> *quickRun

type quickRun struct {
	once sync.Once
	res  hmcsim.Result
	err  error
}

// quickResult returns runner name's memoised quick-mode Result.
func quickResult(t *testing.T, name string) hmcsim.Result {
	t.Helper()
	v, _ := quickRuns.LoadOrStore(name, new(quickRun))
	q := v.(*quickRun)
	q.once.Do(func() { q.res, q.err = Run(context.Background(), name, Options{Quick: true}) })
	if q.err != nil {
		t.Fatalf("%s: %v", name, q.err)
	}
	return q.res
}

// TestABGuard is the kernel-rewrite safety net: every registered
// experiment's quick-mode Result JSON must be byte-identical to the
// golden snapshot in testdata/ab/, which was captured from the
// pre-optimization (container/heap + slice-FIFO + per-packet-alloc)
// kernel. Any change to event ordering, queue semantics, or packet
// lifetime that alters simulation results shows up here as a diff.
// The rendered Text, which hmcsim prints and hmcsimd caches but JSON
// omits, is pinned beside it in <name>.txt.
//
// Regenerate the snapshots (only when a result change is intended and
// understood) with:
//
//	HMCSIM_AB_UPDATE=1 go test ./internal/exp -run TestABGuard
func TestABGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("A/B guard runs every registered experiment; skipped with -short")
	}
	update := os.Getenv("HMCSIM_AB_UPDATE") != ""
	if update {
		if err := os.MkdirAll(filepath.Join("testdata", "ab"), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			res := quickResult(t, name)
			blob, err := res.JSON()
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []struct {
				ext string
				got []byte
			}{{".json", blob}, {".txt", []byte(res.Text)}} {
				path := filepath.Join("testdata", "ab", name+f.ext)
				if update {
					if err := os.WriteFile(path, f.got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden snapshot (run with HMCSIM_AB_UPDATE=1 to create): %v", err)
				}
				if !bytes.Equal(f.got, want) {
					t.Errorf("%s: Result %s differs from the golden snapshot (%d vs %d bytes); the change altered simulation behavior or its rendering", name, f.ext, len(f.got), len(want))
				}
			}
		})
	}
}
