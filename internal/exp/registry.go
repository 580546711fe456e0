package exp

import (
	"context"
	"fmt"

	"hmcsim"
)

// registry lists every experiment in the presentation order of `-exp
// all`: the paper's tables and figures, then the synthetic traffic
// sweeps.
var registry = []entry{
	{"table1", "Table I: HMC request/response read/write sizes", sweep(tableI)},
	{"eq1", "Equation 1: peak bi-directional link bandwidth", sweep(peakBandwidth)},
	{"fig6", "Figure 6: read latency vs bi-directional bandwidth per access pattern", sweep(fig6)},
	{"fig7", "Figure 7: low-load latency vs stream length (1-55)", sweep(fig7)},
	{"fig8", "Figure 8: low-load latency vs stream length (1-350)", sweep(fig8)},
	{"fig9", "Figure 9: QoS collision study, 3 pinned ports + 1 sweeping port", sweep(fig9)},
	{"fig10", "Figures 10-12: four-vault combination latency study", sweep(fig10)},
	{"fig13", "Figure 13: bandwidth vs active ports per access pattern", sweep(fig13)},
	{"fig14", "Figure 14: outstanding requests via Little's law", sweep(fig14)},
	{"ddr", "DDR3 baseline comparison (Section IV-B)", sweep(ddrComparison)},
	{"traffic-zipf", "Synthetic traffic: latency/bandwidth vs zipf skew", sweep(trafficZipf)},
	{"traffic-mix", "Synthetic traffic: markov read/write mix sweep", sweep(trafficMix)},
	{"traffic-burst", "Synthetic traffic: steady vs bursty open-loop injection", sweep(trafficBurst)},
	{hmcsim.TrafficExp, "Synthetic traffic: run the spec in options.traffic", sweep(trafficSpec)},
}

// sweep adapts an experiment's sweep to a registry entry. The render
// runs only after the cancellation check: a cancelled sweep leaves
// zero-valued slots that must never reach it — they would serialize as
// real data points, or crash renders that compute on them (fig10's
// Pearson correlation over empty samples, for one).
func sweep[T interface{ result() hmcsim.Result }](fn func(context.Context, Options) T) func(context.Context, Options) (hmcsim.Result, error) {
	return func(ctx context.Context, o Options) (hmcsim.Result, error) {
		r := fn(ctx, o)
		if err := ctx.Err(); err != nil {
			return hmcsim.Result{}, err
		}
		return r.result(), nil
	}
}

// entry implements hmcsim.Runner for one registered experiment.
type entry struct {
	name, title string
	run         func(context.Context, Options) (hmcsim.Result, error)
}

func (e entry) Name() string     { return e.name }
func (e entry) Describe() string { return e.title }

// Run executes the experiment and stamps the registry metadata and the
// options onto the result. Cancelling ctx aborts between sweep points
// and returns ctx's error rather than a Result whose unscheduled slots
// would serialize as real zero-valued data points.
func (e entry) Run(ctx context.Context, o Options) (hmcsim.Result, error) {
	res, err := e.run(ctx, o)
	if err != nil {
		return hmcsim.Result{}, err
	}
	res.Name = e.name
	res.Title = e.title
	res.Options = o
	return res, nil
}

// Runners returns every registered experiment in registration order.
func Runners() []hmcsim.Runner {
	out := make([]hmcsim.Runner, len(registry))
	for i, e := range registry {
		out[i] = e
	}
	return out
}

// Names returns the registered names in registration order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// Runner looks one registered experiment up by name without running
// it, so callers can validate a whole selection before starting work.
func Runner(name string) (hmcsim.Runner, error) {
	for _, e := range registry {
		if e.name == name {
			return e, nil
		}
	}
	return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", name, Names())
}

// Run executes one registered experiment by name. Cancelling ctx makes
// it return the context's error instead of a partial result.
func Run(ctx context.Context, name string, o Options) (hmcsim.Result, error) {
	r, err := Runner(name)
	if err != nil {
		return hmcsim.Result{}, err
	}
	return r.Run(ctx, o)
}
