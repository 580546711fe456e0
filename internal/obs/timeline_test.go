package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestTimelineBucketing(t *testing.T) {
	const w = DefaultTimelineWidthPs
	tl := NewTimeline()
	tr := tl.Track("a")
	tr.Add(0, 1)
	tr.Add(w-1, 2)
	tr.Add(w, 5)
	tr.Add(-50, 1) // negative times clamp to the first bucket
	if tr.counts[0] != 4 {
		t.Fatalf("bucket 0 = %d, want 4", tr.counts[0])
	}
	if tr.counts[1] != 5 {
		t.Fatalf("bucket 1 = %d, want 5", tr.counts[1])
	}
	if tr.Total() != 9 {
		t.Fatalf("total = %d, want 9", tr.Total())
	}
	if got := tl.Track("a"); got != tr {
		t.Fatal("Track(name) did not return the existing track")
	}
}

// TestTimelineDefaultWidth: every tracer the collector builds carries
// its own timeline, starting at the default bucket width.
func TestTimelineDefaultWidth(t *testing.T) {
	var c Collector
	a, b := c.NewSystem(), c.NewSystem()
	if a.timeline == nil || b.timeline == nil || a.timeline == b.timeline {
		t.Fatal("systems do not each carry their own timeline")
	}
	if w := a.timeline.widthPs; w != DefaultTimelineWidthPs {
		t.Fatalf("default width = %d, want %d", w, DefaultTimelineWidthPs)
	}
}

// TestTimelineFoldPreservesTotals: a sample past the covered range
// doubles the bucket width (possibly repeatedly) without losing any
// previously recorded counts, on every track of the timeline.
func TestTimelineFoldPreservesTotals(t *testing.T) {
	const w0 = DefaultTimelineWidthPs
	tl := NewTimeline()
	a := tl.Track("a")
	b := tl.Track("b")
	for i := 0; i < TimelineBuckets; i++ {
		a.Add(int64(i)*w0, 1)
	}
	b.Add(0, 3)

	// One step past the range: exactly one fold.
	a.Add(w0*TimelineBuckets, 1)
	if tl.widthPs != 2*w0 {
		t.Fatalf("width after fold = %d, want %d", tl.widthPs, 2*w0)
	}
	if a.Total() != TimelineBuckets+1 {
		t.Fatalf("track a total after fold = %d, want %d", a.Total(), TimelineBuckets+1)
	}
	if b.Total() != 3 || b.counts[0] != 3 {
		t.Fatalf("track b disturbed by fold: total=%d counts[0]=%d", b.Total(), b.counts[0])
	}

	// A sample far in the future folds repeatedly until it fits.
	far := int64(1) << 50
	a.Add(far, 2)
	w := tl.widthPs
	if far >= w*TimelineBuckets {
		t.Fatalf("width %d still does not cover t=%d", w, far)
	}
	if a.Total() != TimelineBuckets+3 {
		t.Fatalf("track a total after deep fold = %d, want %d", a.Total(), TimelineBuckets+3)
	}
	if a.counts[far/w] == 0 {
		t.Fatalf("far sample not recorded in bucket %d", far/w)
	}
}

// TestTimelineNilSafe: the nil-receiver contract extends to timelines —
// a nil timeline yields nil tracks whose Add/Total are no-ops.
func TestTimelineNilSafe(t *testing.T) {
	var tl *Timeline
	tr := tl.Track("x")
	if tr != nil {
		t.Fatal("nil timeline returned a non-nil track")
	}
	tr.Add(123, 4) // must not panic
	if tr.Total() != 0 {
		t.Fatal("nil track reports samples")
	}
}

// TestTimelineAddDoesNotAllocate: recording — including the fold path —
// rewrites fixed arrays only.
func TestTimelineAddDoesNotAllocate(t *testing.T) {
	tl := NewTimeline()
	tr := tl.Track("a")
	var tick int64
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Add(tick, 1)
		tick += DefaultTimelineWidthPs / 2 * TimelineBuckets // forces periodic folds
	})
	if allocs != 0 {
		t.Fatalf("Add allocated %.1f/op, want 0", allocs)
	}
	var nilTrack *TimelineTrack
	allocs = testing.AllocsPerRun(1000, func() { nilTrack.Add(1, 1) })
	if allocs != 0 {
		t.Fatalf("nil-track Add allocated %.1f/op, want 0", allocs)
	}
}

// TestEnabledTimelineHooksDoNotAllocate: a clocked system tracer
// records into its timeline allocation-free (tracks are preallocated at
// attach time).
func TestEnabledTimelineHooksDoNotAllocate(t *testing.T) {
	var c Collector
	st := c.NewSystem()
	var tick int64
	st.SetClock(func() int64 { return tick })
	vt := st.Vault(0)
	lt := st.Link("link0.req")
	allocs := testing.AllocsPerRun(1000, func() {
		vt.OnAccept(3)
		vt.OnReject()
		lt.OnTx(9, 1234)
		lt.OnRetry(1234)
		st.NoC.OnHop(2)
		st.NoC.OnCreditStall()
		st.Host.OnTagTake(17)
		st.Host.OnTagWait()
		tick += DefaultTimelineWidthPs * 7 / 10
	})
	if allocs != 0 {
		t.Fatalf("hooks recording a timeline allocated %.1f/op, want 0", allocs)
	}
	if got := st.timeline.Track("vault 0").Total(); got == 0 {
		t.Fatal("vault track recorded nothing")
	}
	if got := st.timeline.Track("link0.req flits").Total(); got == 0 {
		t.Fatal("link track recorded nothing")
	}
	if got := st.timeline.Track("noc credit stalls").Total(); got == 0 {
		t.Fatal("credit-stall track recorded nothing")
	}
}

// TestTimelineAttachOrderIndependent: tracks attach whether components
// register before or after the clock is installed.
func TestTimelineAttachOrderIndependent(t *testing.T) {
	var c Collector
	st := c.NewSystem()
	early := st.Vault(0) // before SetClock
	st.SetClock(func() int64 { return 10 })
	late := st.Vault(1) // after SetClock
	early.OnAccept(1)
	late.OnAccept(1)
	if st.timeline.Track("vault 0").Total() != 1 {
		t.Fatal("pre-clock vault not attached to the timeline")
	}
	if st.timeline.Track("vault 1").Total() != 1 {
		t.Fatal("post-clock vault not attached to the timeline")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	var c Collector
	st := c.NewSystem()
	var tick int64
	st.SetClock(func() int64 { return tick })
	vt := st.Vault(0)
	lt := st.Link("link0.req")
	for i := 0; i < 10; i++ {
		tick = int64(i) * DefaultTimelineWidthPs
		vt.OnAccept(2)
		lt.OnTx(9, 600)
	}
	// A second, untouched system must not emit events.
	quiet := c.NewSystem()
	quiet.SetClock(func() int64 { return 0 })

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Ts   float64         `json:"ts"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", out.DisplayTimeUnit)
	}
	var meta, counters int
	names := map[string]bool{}
	for _, ev := range out.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "C":
			counters++
			names[ev.Name] = true
			if ev.Pid != 1 {
				t.Errorf("counter event on pid %d, want 1 (quiet system must not emit)", ev.Pid)
			}
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if meta == 0 {
		t.Error("no process_name metadata emitted")
	}
	if counters == 0 {
		t.Fatal("no counter events emitted")
	}
	if !names["vault 0"] || !names["link0.req flits"] {
		t.Errorf("counter tracks = %v, want vault 0 and link0.req flits", names)
	}
}

// TestWriteChromeTraceEmpty: zero systems (e.g. table1, which builds no
// simulated systems) must still produce a valid, loadable trace.
func TestWriteChromeTraceEmpty(t *testing.T) {
	var c Collector
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if string(out["traceEvents"]) != "[]" {
		t.Fatalf("traceEvents = %s, want []", out["traceEvents"])
	}
}

func BenchmarkTimelineAdd(b *testing.B) {
	tl := NewTimeline()
	tr := tl.Track("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Add(int64(i)*(DefaultTimelineWidthPs/1000), 1)
	}
}
