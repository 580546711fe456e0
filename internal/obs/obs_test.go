package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestHistBucketing(t *testing.T) {
	var h Hist
	for _, v := range []int{0, 1, 2, 3, 4, 7, 8, 100, -5} {
		h.Observe(v)
	}
	if h.Count != 9 {
		t.Fatalf("count %d, want 9", h.Count)
	}
	if h.Max != 100 {
		t.Fatalf("max %d, want 100", h.Max)
	}
	// Sum treats the negative observation as 0.
	if h.Sum != 0+1+2+3+4+7+8+100 {
		t.Fatalf("sum %d", h.Sum)
	}
	want := map[int]uint64{0: 2, 1: 1, 2: 2, 3: 2, 4: 1, 7: 1} // bucket index -> count
	for i, n := range h.Buckets {
		if n != want[i] {
			t.Errorf("bucket %d (le %s): %d, want %d", i, BucketLabel(i), n, want[i])
		}
	}
}

func TestHistClampAndMerge(t *testing.T) {
	var a, b Hist
	a.Observe(1 << 40) // far beyond the last labeled bucket
	b.Observe(3)
	b.Observe(5)
	a.Merge(&b)
	if a.Count != 3 || a.Max != 1<<40 {
		t.Fatalf("merged count=%d max=%d", a.Count, a.Max)
	}
	if a.Buckets[histBuckets-1] != 1 {
		t.Fatalf("huge value not clamped into the last bucket: %v", a.Buckets)
	}
	s := a.Summarize()
	if s.Buckets[len(s.Buckets)-1].Le != "+Inf" {
		t.Fatalf("last occupied bucket label %q, want +Inf", s.Buckets[len(s.Buckets)-1].Le)
	}
}

// TestHistObserveZero: the zero value is its own bucket, distinct from
// [1,2), and feeds Count but not Sum.
func TestHistObserveZero(t *testing.T) {
	var h Hist
	h.Observe(0)
	h.Observe(0)
	if h.Count != 2 || h.Sum != 0 || h.Max != 0 {
		t.Fatalf("count=%d sum=%d max=%d, want 2/0/0", h.Count, h.Sum, h.Max)
	}
	if h.Buckets[0] != 2 {
		t.Fatalf("bucket 0 = %d, want 2", h.Buckets[0])
	}
	for i := 1; i < histBuckets; i++ {
		if h.Buckets[i] != 0 {
			t.Fatalf("bucket %d = %d, want 0", i, h.Buckets[i])
		}
	}
	s := h.Summarize()
	if len(s.Buckets) != 1 || s.Buckets[0].Le != "0" {
		t.Fatalf("summary buckets = %+v, want one le=0 bucket", s.Buckets)
	}
}

// TestHistClampTopBucket: every value at or past the last labeled bound
// lands in the open-ended +Inf bucket, never out of range.
func TestHistClampTopBucket(t *testing.T) {
	top := uint64(1) << (histBuckets - 2) // first value past the last labeled bound
	var h Hist
	for _, v := range []int{int(top) - 1, int(top), int(top) * 2, 1 << 62} {
		h.Observe(v)
	}
	if h.Buckets[histBuckets-2] != 1 {
		t.Fatalf("value %d should land in the last labeled bucket: %v", top-1, h.Buckets)
	}
	if h.Buckets[histBuckets-1] != 3 {
		t.Fatalf("top bucket = %d, want 3 clamped values: %v", h.Buckets[histBuckets-1], h.Buckets)
	}
	if h.Max != 1<<62 {
		t.Fatalf("max = %d, want %d", h.Max, uint64(1)<<62)
	}
}

// TestHistMergeDifferingMax: Merge keeps the larger Max regardless of
// which side holds it, and is not commutative-sensitive for the counts.
func TestHistMergeDifferingMax(t *testing.T) {
	var small, big Hist
	small.Observe(2)
	big.Observe(500)

	a := small // copy, merge big into small
	a.Merge(&big)
	if a.Max != 500 {
		t.Fatalf("merge(small<-big) max = %d, want 500", a.Max)
	}
	b := big // copy, merge small into big: Max must survive
	b.Merge(&small)
	if b.Max != 500 {
		t.Fatalf("merge(big<-small) max = %d, want 500", b.Max)
	}
	if a.Count != 2 || b.Count != 2 || a.Sum != 502 || b.Sum != 502 {
		t.Fatalf("merged counts/sums differ: a=%+v b=%+v", a, b)
	}
	for i := range a.Buckets {
		if a.Buckets[i] != b.Buckets[i] {
			t.Fatalf("bucket %d differs by merge order: %d vs %d", i, a.Buckets[i], b.Buckets[i])
		}
	}
}

// TestBucketLabelBoundaries pins the label scheme: inclusive upper
// bounds 0, 1, 3, 7, ... with +Inf on the open-ended last bucket, and
// out-of-range indices clamped to the nearest end.
func TestBucketLabelBoundaries(t *testing.T) {
	cases := map[int]string{
		-1:              "0", // clamped low
		0:               "0",
		1:               "1",
		2:               "3",
		3:               "7",
		histBuckets - 2: "32767",
		histBuckets - 1: "+Inf",
		histBuckets:     "+Inf", // clamped high
	}
	for i, want := range cases {
		if got := BucketLabel(i); got != want {
			t.Errorf("BucketLabel(%d) = %q, want %q", i, got, want)
		}
	}
}

// TestTracerMethodsAreNilSafe: components call hooks unconditionally on
// possibly-nil pointers, and every tracer they hold comes from a
// SystemTracer. So every exported method of every tracer type reachable
// from SystemTracer (named ...Tracer, ...Track or Timeline) must be safe
// on a nil receiver.
func TestTracerMethodsAreNilSafe(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for k := typ.Kind(); k == reflect.Pointer || k == reflect.Slice || k == reflect.Array || k == reflect.Map; k = typ.Kind() {
			typ = typ.Elem()
		}
		if typ.Kind() == reflect.Struct && !seen[typ] {
			seen[typ] = true
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type)
			}
		}
	}
	walk(reflect.TypeOf(SystemTracer{}))
	methods := 0
	for typ := range seen {
		name := typ.Name()
		if !strings.HasSuffix(name, "Tracer") && !strings.HasSuffix(name, "Track") && name != "Timeline" {
			continue
		}
		ptr := reflect.PointerTo(typ)
		for i := 0; i < ptr.NumMethod(); i++ {
			m := ptr.Method(i)
			args := []reflect.Value{reflect.Zero(ptr)}
			for j := 1; j < m.Type.NumIn(); j++ {
				args = append(args, reflect.Zero(m.Type.In(j)))
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("(*%s).%s panics on a nil receiver: %v", name, m.Name, r)
					}
				}()
				m.Func.Call(args)
			}()
			methods++
		}
	}
	if methods < 14 { // the hooks of SystemTracer, its four component tracers and the timeline
		t.Fatalf("walk reached %d tracer methods, want at least 14", methods)
	}
}

// TestNilTracersAreNoOps is the zero-cost-when-off contract: every hook
// must be safe and allocation-free on a nil receiver, because components
// call them unconditionally on possibly-nil pointers.
func TestNilTracersAreNoOps(t *testing.T) {
	var vt *VaultTracer
	var lt *LinkTracer
	var nt *NoCTracer
	var ht *HostTracer
	allocs := testing.AllocsPerRun(1000, func() {
		vt.OnAccept(3)
		vt.OnReject()
		lt.OnTx(9, 1234)
		lt.OnRetry(1234)
		nt.OnHop(2)
		nt.OnCreditStall()
		ht.OnTagTake(17)
		ht.OnTagWait()
	})
	if allocs != 0 {
		t.Fatalf("nil tracer hooks allocated %.1f/op, want 0", allocs)
	}
}

// TestEnabledTracersDoNotAllocate: the hooks stay allocation-free when
// tracing is on, too — fixed-size histograms, no boxing.
func TestEnabledTracersDoNotAllocate(t *testing.T) {
	vt := &VaultTracer{}
	lt := &LinkTracer{}
	nt := &NoCTracer{}
	ht := &HostTracer{}
	allocs := testing.AllocsPerRun(1000, func() {
		vt.OnAccept(3)
		vt.OnReject()
		lt.OnTx(9, 1234)
		lt.OnRetry(1234)
		nt.OnHop(2)
		nt.OnCreditStall()
		ht.OnTagTake(17)
		ht.OnTagWait()
	})
	if allocs != 0 {
		t.Fatalf("enabled tracer hooks allocated %.1f/op, want 0", allocs)
	}
}

func TestCollectorSummaryMerges(t *testing.T) {
	var c Collector

	s1 := c.NewSystem()
	s1.SetClock(func() int64 { return 1000 })
	s1.Vault(0).OnAccept(2)
	s1.Vault(0).OnAccept(4)
	s1.Vault(2).OnReject()
	s1.Link("link0.req").OnTx(9, 600)
	s1.NoC.OnHop(1)
	s1.Host.OnTagTake(5)

	s2 := c.NewSystem()
	s2.SetClock(func() int64 { return 3000 })
	s2.Vault(0).OnAccept(6)
	s2.Link("link0.req").OnTx(1, 200)
	s2.Link("link0.resp").OnRetry(100)
	s2.Host.OnTagWait()

	sum := c.Summary()
	if sum.Systems != 2 {
		t.Fatalf("systems %d, want 2", sum.Systems)
	}
	if sum.Vaults.Accepts != 3 || sum.Vaults.Rejects != 1 {
		t.Fatalf("vault totals %+v", sum.Vaults)
	}
	if got := sum.Vaults.PerVault[0].Accepts; got != 3 {
		t.Fatalf("vault 0 accepts %d, want 3", got)
	}
	if mean := sum.Vaults.PerVault[0].MeanOcc; mean != 4 {
		t.Fatalf("vault 0 mean occupancy %v, want 4", mean)
	}
	if len(sum.Links) != 2 || sum.Links[0].Name != "link0.req" {
		t.Fatalf("links %+v", sum.Links)
	}
	req := sum.Links[0]
	if req.Packets != 2 || req.Flits != 10 || req.BusyPs != 800 || req.WindowPs != 4000 {
		t.Fatalf("link0.req aggregate %+v", req)
	}
	if req.Utilization != 0.2 {
		t.Fatalf("link0.req utilization %v, want 0.2", req.Utilization)
	}
	if sum.NoC.Hops != 1 || sum.Host.TagTakes != 1 || sum.Host.TagWaits != 1 {
		t.Fatalf("noc/host aggregates %+v %+v", sum.NoC, sum.Host)
	}

	// The summary must round-trip as JSON and render as text.
	blob, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	text := sum.String()
	for _, want := range []string{"tracer summary (2 systems)", "link0.req", "vault  0"} {
		if !strings.Contains(text, want) {
			t.Fatalf("summary text missing %q:\n%s", want, text)
		}
	}
}
