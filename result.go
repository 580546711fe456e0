package hmcsim

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
)

// Result is the structured outcome of one experiment: metadata plus one
// or more named series of points. It marshals to JSON for machine
// consumption; String renders the human-readable tables the runners
// have always printed.
type Result struct {
	Name    string   `json:"name"`
	Title   string   `json:"title"`
	Options Options  `json:"options"`
	Series  []Series `json:"series"`

	// Text is the pre-rendered human form, excluded from JSON.
	Text string `json:"-"`
}

// Series is one named metric across a sweep.
type Series struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit,omitempty"`
	Points []Point `json:"points"`
}

// Point is one sample of a series. Label carries the categorical
// dimension (a pattern name, a backend, a size class); X the numeric
// one (request size, port count, stream length).
type Point struct {
	Label string  `json:"label,omitempty"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
}

// String renders the human-readable form, falling back to a terse
// series dump for results built without one.
func (r Result) String() string {
	if r.Text != "" {
		return r.Text
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", r.Name, r.Title)
	for _, s := range r.Series {
		fmt.Fprintf(&b, "  %s [%s]: %d points\n", s.Name, s.Unit, len(s.Points))
	}
	return b.String()
}

// JSON marshals the result with stable, human-diffable indentation.
func (r Result) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Get returns the named series.
func (r Result) Get(series string) (Series, bool) {
	for _, s := range r.Series {
		if s.Name == series {
			return s, true
		}
	}
	return Series{}, false
}

// Lookup returns the Y value of the point with the given label and X.
func (s Series) Lookup(label string, x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.Label == label && p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Runner is a named, self-describing experiment. The paper's tables and
// figures implement it via the registry in internal/exp; RemoteRunner
// adapts experiments served by a daemon fleet.
//
// Run observes ctx between sweep points: cancelling it makes the runner
// stop scheduling work and return ctx's error instead of the partial
// (and therefore meaningless) Result it swept so far. A non-nil error
// means the Result must be discarded.
type Runner interface {
	Name() string
	Describe() string
	Run(ctx context.Context, o Options) (Result, error)
}
