// Package exp contains one runner per table and figure of the paper's
// evaluation (Section IV), plus the synthetic traffic sweeps. Each
// runner builds fresh systems from a base configuration, drives the
// same workloads the paper describes, and renders a structured,
// JSON-marshalable hmcsim.Result whose Text prints the rows or series
// the paper reports.
//
// The registry (registry.go) is the only way in: one table lists every
// runner in presentation order, and the hmcsim CLI, hmcsimd and the
// bench harness iterate it rather than hard-coding the experiment list.
package exp

import (
	"fmt"
	"sort"
	"strings"

	"hmcsim"
)

// sizes are the request sizes every experiment sweeps (Table I).
var sizes = []int{16, 32, 64, 128}

// Options tune how much work the runners do; it is the public
// hmcsim.Options (Quick, Seed, Workers). The zero value is the full
// paper-fidelity configuration run sequentially-or-parallel per
// runtime.NumCPU().
type Options = hmcsim.Options

// table is a tiny fixed-width text table builder shared by the results.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	return b.String()
}

// sortedKeys returns map keys in ascending order; results use it to print
// deterministically.
func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
