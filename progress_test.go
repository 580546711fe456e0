// Tests for the observability wiring of the public API: progress
// sinks, trace collectors and their Chrome trace_event export, and
// context-cancellation checkpoints in systems built with
// Options.NewSystemCtx.
package hmcsim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hmcsim"
	"hmcsim/internal/sim"
)

func TestWithProgressReportsSweepPoints(t *testing.T) {
	var mu sync.Mutex
	var got []hmcsim.Progress
	pctx := hmcsim.WithProgress(context.Background(), func(p hmcsim.Progress) {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
	})
	hmcsim.Sweep(pctx, 2, 5, func(i int) int { return i })
	mu.Lock()
	defer mu.Unlock()
	if len(got) < 2 {
		t.Fatalf("want at least 2 progress events (total announcement + points), got %d", len(got))
	}
	if got[0].Total != 5 {
		t.Errorf("first event total = %d, want 5 (announced before points land)", got[0].Total)
	}
	last := got[len(got)-1]
	if last.Done != 5 || last.Total != 5 {
		t.Errorf("final event = %d/%d, want 5/5", last.Done, last.Total)
	}
}

// ctxEngines are the two ways an experiment gets a context-wired
// engine: a whole system from NewSystemCtx running GUPS for window
// after warmup, and a bare engine from NewEngineCtx firing one event
// per nanosecond for as long. Each returns the engine after its run.
var ctxEngines = []struct {
	name string
	run  func(ctx context.Context, o hmcsim.Options, warmup, window hmcsim.Time) *sim.Engine
}{
	{"NewSystemCtx", func(ctx context.Context, o hmcsim.Options, warmup, window hmcsim.Time) *sim.Engine {
		sys := o.NewSystemCtx(ctx)
		sys.RunGUPS(hmcsim.GUPSSpec{
			Ports: 9, Size: 128, Pattern: hmcsim.AllVaults.Build(sys),
			Warmup: warmup, Window: window,
		})
		return sys.Eng
	}},
	{"NewEngineCtx", func(ctx context.Context, o hmcsim.Options, warmup, window hmcsim.Time) *sim.Engine {
		eng := o.NewEngineCtx(ctx)
		var tick func()
		tick = func() {
			if eng.Now() < warmup+window {
				eng.Schedule(hmcsim.Nanosecond, tick)
			}
		}
		eng.Schedule(0, tick)
		eng.Drain()
		return eng
	}},
}

func TestWithProgressCarriesEngineHeadway(t *testing.T) {
	for _, r := range ctxEngines {
		var mu sync.Mutex
		var last hmcsim.Progress
		pctx := hmcsim.WithProgress(context.Background(), func(p hmcsim.Progress) {
			mu.Lock()
			last = p
			mu.Unlock()
		})
		o := hmcsim.Options{Quick: true}
		hmcsim.Sweep(pctx, 1, 2, func(i int) hmcsim.Time {
			return r.run(pctx, o, hmcsim.Microsecond, 10*hmcsim.Microsecond).Now()
		})
		mu.Lock()
		// The point-boundary flushes force out whatever engine headway
		// the rate limiter was still holding.
		if last.Events == 0 {
			t.Errorf("%s: final progress reports zero engine events despite two simulations", r.name)
		}
		if last.SimTimePs == 0 {
			t.Errorf("%s: final progress reports zero simulated time despite two simulations", r.name)
		}
		mu.Unlock()
	}
}

func TestNewSystemCtxCancelInterruptsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the simulation even starts
	for _, r := range ctxEngines {
		eng := r.run(ctx, hmcsim.Options{}, 100*hmcsim.Microsecond, 500*hmcsim.Microsecond)
		// The engine hits its first checkpoint within a few thousand
		// events and stops; a full run would advance simulated time to
		// 600 us.
		if eng.Now() >= 100*hmcsim.Microsecond {
			t.Errorf("%s: engine ran to %v despite canceled context", r.name, eng.Now())
		}
		if !eng.Interrupted() {
			t.Errorf("%s: engine does not report the checkpoint interrupt", r.name)
		}
	}
}

func TestNewSystemCtxBackgroundMatchesNewSystem(t *testing.T) {
	o := hmcsim.Options{Quick: true, Seed: 7}
	cfg := hmcsim.DefaultConfig()
	cfg.Seed = o.Seed
	plainSys, wiredSys := hmcsim.NewSystem(cfg), o.NewSystemCtx(context.Background())
	plain := plainSys.RunGUPS(twoPorts(plainSys, 64))
	wired := wiredSys.RunGUPS(twoPorts(wiredSys, 64))
	if !reflect.DeepEqual(plain, wired) {
		t.Errorf("NewSystemCtx(background) diverges from NewSystem:\n %#v\n %#v", plain, wired)
	}
}

func TestWithTraceCollectsComponentActivity(t *testing.T) {
	ctx, col := hmcsim.WithTrace(context.Background())
	o := hmcsim.Options{Quick: true}
	sys := o.NewSystemCtx(ctx)
	sys.RunGUPS(twoPorts(sys, 128))

	if col.Systems() != 1 {
		t.Fatalf("collector saw %d systems, want 1", col.Systems())
	}
	text := col.String()
	for _, want := range []string{"tracer summary", "vaults: accepts=", "link0.req", "noc: hops=", "host: tag takes="} {
		if !strings.Contains(text, want) {
			t.Errorf("summary text missing %q:\n%s", want, text)
		}
	}
	blob, err := json.Marshal(col)
	if err != nil {
		t.Fatalf("marshal collector: %v", err)
	}
	var sum struct {
		Vaults struct {
			Accepts uint64 `json:"Accepts"`
		}
		NoC struct {
			Hops uint64 `json:"Hops"`
		}
		Host struct {
			TagTakes uint64 `json:"TagTakes"`
		}
	}
	if err := json.Unmarshal(blob, &sum); err != nil {
		t.Fatalf("unmarshal summary: %v", err)
	}
	if sum.Vaults.Accepts == 0 {
		t.Error("traced run recorded zero vault accepts")
	}
	if sum.NoC.Hops == 0 {
		t.Error("traced run recorded zero NoC hops")
	}
	if sum.Host.TagTakes == 0 {
		t.Error("traced run recorded zero host tag takes")
	}
}

// TestWithTraceWritesChromeTrace: the systems traced under WithTrace
// export their activity over simulated time as Chrome trace_event JSON,
// one counter series per component.
func TestWithTraceWritesChromeTrace(t *testing.T) {
	ctx, col := hmcsim.WithTrace(context.Background())
	sys := hmcsim.Options{Quick: true}.NewSystemCtx(ctx)
	sys.RunGUPS(twoPorts(sys, 128))

	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("write chrome trace: %v", err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	counters := map[string]int{}
	for _, ev := range out.TraceEvents {
		if ev.Ph == "C" {
			counters[ev.Name]++
		}
	}
	if len(counters) == 0 {
		t.Fatal("trace has no counter events")
	}
	for _, want := range []string{"vault 0", "noc hops", "host tags"} {
		if counters[want] == 0 {
			t.Errorf("trace missing counter series %q; have %v", want, counters)
		}
	}
}

// TestWithTraceEmptyRunStillValid: a run that builds no systems must
// still export a valid (empty) trace — the table1 smoke case.
func TestWithTraceEmptyRunStillValid(t *testing.T) {
	_, col := hmcsim.WithTrace(context.Background())
	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if string(out["traceEvents"]) != "[]" {
		t.Fatalf("traceEvents = %s, want []", out["traceEvents"])
	}
}

// TestTraceDoesNotChangeResults guards determinism: a traced system
// must produce bit-identical measurements to an untraced one, since
// tracers only observe.
func TestTraceDoesNotChangeResults(t *testing.T) {
	o := hmcsim.Options{Quick: true, Seed: 3}
	tctx, _ := hmcsim.WithTrace(context.Background())
	plainSys, tracedSys := o.NewSystemCtx(context.Background()), o.NewSystemCtx(tctx)
	plain := plainSys.RunGUPS(twoPorts(plainSys, 64))
	traced := tracedSys.RunGUPS(twoPorts(tracedSys, 64))
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("tracing changed the result:\n untraced %#v\n traced   %#v", plain, traced)
	}
}

// twoPorts is the short GUPS run most tests here share: two ports of
// size-byte reads over the whole cube, a 2 us warm-up and a 10 us
// window.
func twoPorts(sys *hmcsim.System, size int) hmcsim.GUPSSpec {
	return hmcsim.GUPSSpec{
		Ports: 2, Size: size, Pattern: hmcsim.AllVaults.Build(sys),
		Warmup: 2 * hmcsim.Microsecond, Window: 10 * hmcsim.Microsecond,
	}
}
