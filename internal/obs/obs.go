// Package obs is the live-observability layer: per-component tracer
// hooks compiled into the kernel hot paths, and the collector that
// merges what they saw into a JSON- and human-renderable summary.
//
// The design follows the AkitaRTM rule that monitoring must be
// zero-cost when off: every tracer hook is a method on a pointer
// receiver that begins with a nil check, so a component holds a plain
// possibly-nil tracer pointer and calls the hook unconditionally.
// Disabled tracing therefore costs one predictable branch per hook and
// zero allocations — the bar enforced by the kernel's bench_test.go
// 0 allocs/op guards.
//
// The package deliberately depends only on the standard library (time
// is plain int64 picoseconds, converted at the call sites), so any
// layer of the simulator can import it without cycles.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
)

// histBuckets is the fixed bucket count of Hist: bucket 0 holds the
// value 0, bucket i holds [2^(i-1), 2^i), and the last bucket absorbs
// everything at or above 2^(histBuckets-2).
const histBuckets = 17

// Hist is a power-of-two-bucketed histogram of small non-negative
// integers (queue depths, outstanding-request counts). Observe is
// allocation-free: the buckets are a fixed array and the bucket index
// is one bits.Len64.
type Hist struct {
	Count   uint64
	Sum     uint64
	Max     uint64
	Buckets [histBuckets]uint64
}

// Observe records one sample. Negative values clamp to zero.
func (h *Hist) Observe(v int) {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	h.Count++
	h.Sum += u
	if u > h.Max {
		h.Max = u
	}
	i := bits.Len64(u)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.Buckets[i]++
}

// Merge adds o's samples into h.
func (h *Hist) Merge(o *Hist) {
	h.Count += o.Count
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the sample mean, 0 with no samples.
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// BucketLabel renders bucket i's inclusive upper bound: "0", "1", "3",
// "7", ... and "+Inf" for the open-ended last bucket.
func BucketLabel(i int) string {
	if i <= 0 {
		return "0"
	}
	if i >= histBuckets-1 {
		return "+Inf"
	}
	return fmt.Sprintf("%d", uint64(1)<<i-1)
}

// Summarize snapshots the histogram into its wire form, keeping only
// occupied buckets.
func (h *Hist) Summarize() HistSummary {
	s := HistSummary{Count: h.Count, Mean: h.Mean(), Max: h.Max}
	for i, n := range h.Buckets {
		if n > 0 {
			s.Buckets = append(s.Buckets, HistBucket{Le: BucketLabel(i), Count: n})
		}
	}
	return s
}

// HistSummary is the JSON form of a Hist.
type HistSummary struct {
	Count   uint64       `json:"count"`
	Mean    float64      `json:"mean"`
	Max     uint64       `json:"max"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// HistBucket is one occupied histogram bucket; Le is the inclusive
// upper bound ("+Inf" for the open-ended last bucket).
type HistBucket struct {
	Le    string `json:"le"`
	Count uint64 `json:"count"`
}

func (s HistSummary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f max=%d", s.Count, s.Mean, s.Max)
}

// VaultTracer observes one vault controller's admission path.
type VaultTracer struct {
	Accepts   uint64 // transactions admitted into the controller
	Rejects   uint64 // back-pressure rejections at the input buffer
	Occupancy Hist   // requests waiting in the controller, sampled per accept

	// Timeline tracks, attached once the owning SystemTracer's clock is
	// set; nil before that (and in a standalone tracer), costing the
	// hooks one branch.
	tl  *TimelineTrack // accepts over sim-time
	tlR *TimelineTrack // rejects over sim-time (shared across vaults)
	now func() int64
}

// OnAccept records an admission at the given controller occupancy
// (input buffer plus bank queues, after insertion). No-op on nil.
func (t *VaultTracer) OnAccept(occupancy int) {
	if t == nil {
		return
	}
	t.Accepts++
	t.Occupancy.Observe(occupancy)
	if t.tl != nil {
		t.tl.Add(t.now(), 1)
	}
}

// OnReject records a full-input-buffer rejection. No-op on nil.
func (t *VaultTracer) OnReject() {
	if t == nil {
		return
	}
	t.Rejects++
	if t.tlR != nil {
		t.tlR.Add(t.now(), 1)
	}
}

// LinkTracer observes one direction of a serial link.
type LinkTracer struct {
	Packets uint64
	Flits   uint64
	Retries uint64
	BusyPs  int64 // serializer-occupied simulated time

	tl  *TimelineTrack // flits over sim-time, once the system clock is set
	now func() int64
}

// OnTx records a successfully serialized packet and the serializer
// time it occupied. No-op on nil.
func (t *LinkTracer) OnTx(flits int, serPs int64) {
	if t == nil {
		return
	}
	t.Packets++
	t.Flits += uint64(flits)
	t.BusyPs += serPs
	if t.tl != nil {
		t.tl.Add(t.now(), uint64(flits))
	}
}

// OnRetry records a CRC-triggered retransmission; the corrupted pass
// still occupied the serializer for serPs. No-op on nil.
func (t *LinkTracer) OnRetry(serPs int64) {
	if t == nil {
		return
	}
	t.Retries++
	t.BusyPs += serPs
}

// NoCTracer observes the logic-layer fabric. One tracer is shared by
// every router of a system; engines are single-threaded, so the shared
// counters need no synchronization.
type NoCTracer struct {
	Hops   uint64 // router admissions (each is one hop of a message's path)
	Stalls uint64 // bridge-channel admissions refused by an empty credit pool
	Queue  Hist   // router occupancy sampled at each admission

	tl  *TimelineTrack // hops over sim-time, once the system clock is set
	tlS *TimelineTrack // credit stalls over sim-time
	now func() int64
}

// OnHop records one router admission at the given router occupancy.
// No-op on nil.
func (t *NoCTracer) OnHop(queued int) {
	if t == nil {
		return
	}
	t.Hops++
	t.Queue.Observe(queued)
	if t.tl != nil {
		t.tl.Add(t.now(), 1)
	}
}

// OnCreditStall records a bridge-channel admission attempt that found
// the credit pool empty — the fabric's back-pressure signal between
// quadrants. No-op on nil.
func (t *NoCTracer) OnCreditStall() {
	if t == nil {
		return
	}
	t.Stalls++
	if t.tlS != nil {
		t.tlS.Add(t.now(), 1)
	}
}

// HostTracer observes the FPGA-side tag pools that bound outstanding
// requests per port.
type HostTracer struct {
	TagTakes    uint64 // successful tag acquisitions
	TagWaits    uint64 // issue attempts blocked on an empty pool
	Outstanding Hist   // outstanding tags sampled per acquisition

	tl  *TimelineTrack // tag takes over sim-time, once the system clock is set
	tlW *TimelineTrack // tag waits over sim-time
	now func() int64
}

// OnTagTake records a successful acquisition with the pool's resulting
// outstanding count. No-op on nil.
func (t *HostTracer) OnTagTake(outstanding int) {
	if t == nil {
		return
	}
	t.TagTakes++
	t.Outstanding.Observe(outstanding)
	if t.tl != nil {
		t.tl.Add(t.now(), 1)
	}
}

// OnTagWait records an issue attempt that found the pool empty. No-op
// on nil.
func (t *HostTracer) OnTagWait() {
	if t == nil {
		return
	}
	t.TagWaits++
	if t.tlW != nil {
		t.tlW.Add(t.now(), 1)
	}
}

// SystemTracer aggregates the component tracers of one System and the
// timeline of their activity over simulated time. All of its state is
// touched only by that system's single engine goroutine; the Collector
// merges across systems after their runs complete.
type SystemTracer struct {
	vaults []*VaultTracer
	links  []*LinkTracer
	names  []string // links[i]'s direction name
	NoC    NoCTracer
	Host   HostTracer

	now      func() int64 // the owning engine's clock, for utilization windows
	timeline *Timeline    // the components' activity over simulated time
}

// SetClock installs the owning engine's clock; the collector reads it
// once per summary as the utilization window, and the timeline uses it
// to place samples on the sim-time axis. Component tracers created
// before or after it get their timeline tracks alike.
func (t *SystemTracer) SetClock(fn func() int64) {
	if t == nil {
		return
	}
	t.now = fn
	t.NoC.now = fn
	t.NoC.tl = t.timeline.Track("noc hops")
	t.NoC.tlS = t.timeline.Track("noc credit stalls")
	t.Host.now = fn
	t.Host.tl = t.timeline.Track("host tags")
	t.Host.tlW = t.timeline.Track("host tag waits")
	for id, vt := range t.vaults {
		t.attachVault(id, vt)
	}
	for i, lt := range t.links {
		t.attachLink(t.names[i], lt)
	}
}

func (t *SystemTracer) attachVault(id int, vt *VaultTracer) {
	if t.now == nil {
		return
	}
	vt.now = t.now
	vt.tl = t.timeline.Track(fmt.Sprintf("vault %d", id))
	vt.tlR = t.timeline.Track("vault rejects")
}

func (t *SystemTracer) attachLink(name string, lt *LinkTracer) {
	if t.now == nil {
		return
	}
	lt.now = t.now
	lt.tl = t.timeline.Track(name + " flits")
}

// Vault returns (growing on demand) the tracer for vault id.
func (t *SystemTracer) Vault(id int) *VaultTracer {
	if t == nil {
		return nil
	}
	for len(t.vaults) <= id {
		vt := &VaultTracer{}
		t.attachVault(len(t.vaults), vt)
		t.vaults = append(t.vaults, vt)
	}
	return t.vaults[id]
}

// Link returns (creating on demand) the tracer for the named link
// direction.
func (t *SystemTracer) Link(name string) *LinkTracer {
	if t == nil {
		return nil
	}
	for i, n := range t.names {
		if n == name {
			return t.links[i]
		}
	}
	lt := &LinkTracer{}
	t.attachLink(name, lt)
	t.links = append(t.links, lt)
	t.names = append(t.names, name)
	return lt
}

// Collector gathers SystemTracers across the (possibly parallel)
// systems of a run and merges them into one Summary.
type Collector struct {
	mu      sync.Mutex
	systems []*SystemTracer
}

// NewSystem registers and returns a tracer, with its own timeline, for
// one new system. Safe to call from concurrent sweep workers.
func (c *Collector) NewSystem() *SystemTracer {
	t := &SystemTracer{timeline: NewTimeline()}
	c.mu.Lock()
	c.systems = append(c.systems, t)
	c.mu.Unlock()
	return t
}

// Systems returns how many systems have registered.
func (c *Collector) Systems() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.systems)
}

// Summary is the merged snapshot of every traced system.
type Summary struct {
	Systems int           `json:"systems"`
	Vaults  VaultSummary  `json:"vaults"`
	Links   []LinkSummary `json:"links"`
	NoC     NoCSummary    `json:"noc"`
	Host    HostSummary   `json:"host"`
}

// VaultSummary aggregates the vault tracers: totals plus per-vault-ID
// lines merged across systems.
type VaultSummary struct {
	Accepts   uint64      `json:"accepts"`
	Rejects   uint64      `json:"rejects"`
	Occupancy HistSummary `json:"occupancy"`
	PerVault  []VaultLine `json:"perVault,omitempty"`
}

// VaultLine is one vault ID's aggregate across systems.
type VaultLine struct {
	ID      int     `json:"id"`
	Accepts uint64  `json:"accepts"`
	Rejects uint64  `json:"rejects"`
	MeanOcc float64 `json:"meanOcc"`
	MaxOcc  uint64  `json:"maxOcc"`
}

// LinkSummary is one link direction's aggregate across systems.
// Utilization is busy time over the summed engine windows of the
// systems that direction appeared in.
type LinkSummary struct {
	Name        string  `json:"name"`
	Packets     uint64  `json:"packets"`
	Flits       uint64  `json:"flits"`
	Retries     uint64  `json:"retries"`
	BusyPs      int64   `json:"busyPs"`
	WindowPs    int64   `json:"windowPs"`
	Utilization float64 `json:"utilization"`
}

// NoCSummary aggregates the fabric tracers.
type NoCSummary struct {
	Hops   uint64      `json:"hops"`
	Stalls uint64      `json:"stalls"`
	Queue  HistSummary `json:"queue"`
}

// HostSummary aggregates the tag-pool tracers.
type HostSummary struct {
	TagTakes    uint64      `json:"tagTakes"`
	TagWaits    uint64      `json:"tagWaits"`
	Outstanding HistSummary `json:"outstanding"`
}

// Summary merges every registered system. Call it after the traced
// runs complete; it reads tracer state the engine goroutines wrote.
func (c *Collector) Summary() *Summary {
	c.mu.Lock()
	systems := append([]*SystemTracer(nil), c.systems...)
	c.mu.Unlock()

	s := &Summary{Systems: len(systems)}
	var vaultAgg []VaultLine
	var vaultOcc []Hist
	var occAll Hist
	var nocQ Hist
	var hostOut Hist
	type linkAgg struct {
		LinkSummary
	}
	linksByName := map[string]*linkAgg{}
	for _, sys := range systems {
		var window int64
		if sys.now != nil {
			window = sys.now()
		}
		for id, vt := range sys.vaults {
			for len(vaultAgg) <= id {
				vaultAgg = append(vaultAgg, VaultLine{ID: len(vaultAgg)})
				vaultOcc = append(vaultOcc, Hist{})
			}
			vaultAgg[id].Accepts += vt.Accepts
			vaultAgg[id].Rejects += vt.Rejects
			vaultOcc[id].Merge(&vt.Occupancy)
			occAll.Merge(&vt.Occupancy)
			s.Vaults.Accepts += vt.Accepts
			s.Vaults.Rejects += vt.Rejects
		}
		for i, lt := range sys.links {
			a := linksByName[sys.names[i]]
			if a == nil {
				a = &linkAgg{LinkSummary{Name: sys.names[i]}}
				linksByName[sys.names[i]] = a
			}
			a.Packets += lt.Packets
			a.Flits += lt.Flits
			a.Retries += lt.Retries
			a.BusyPs += lt.BusyPs
			a.WindowPs += window
		}
		s.NoC.Hops += sys.NoC.Hops
		s.NoC.Stalls += sys.NoC.Stalls
		nocQ.Merge(&sys.NoC.Queue)
		s.Host.TagTakes += sys.Host.TagTakes
		s.Host.TagWaits += sys.Host.TagWaits
		hostOut.Merge(&sys.Host.Outstanding)
	}
	for i := range vaultAgg {
		vaultAgg[i].MeanOcc = vaultOcc[i].Mean()
		vaultAgg[i].MaxOcc = vaultOcc[i].Max
	}
	s.Vaults.PerVault = vaultAgg
	s.Vaults.Occupancy = occAll.Summarize()
	s.NoC.Queue = nocQ.Summarize()
	s.Host.Outstanding = hostOut.Summarize()
	for _, a := range linksByName {
		ls := a.LinkSummary
		if ls.WindowPs > 0 {
			ls.Utilization = float64(ls.BusyPs) / float64(ls.WindowPs)
			if math.IsNaN(ls.Utilization) {
				ls.Utilization = 0
			}
		}
		s.Links = append(s.Links, ls)
	}
	sort.Slice(s.Links, func(i, j int) bool { return s.Links[i].Name < s.Links[j].Name })
	return s
}

// JSON marshals the summary with stable indentation.
func (s *Summary) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// String renders the human-readable tracer dump `hmcsim -trace` prints.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tracer summary (%d system", s.Systems)
	if s.Systems != 1 {
		b.WriteString("s")
	}
	b.WriteString(")\n")
	fmt.Fprintf(&b, "  vaults: accepts=%d rejects=%d occupancy %s\n",
		s.Vaults.Accepts, s.Vaults.Rejects, s.Vaults.Occupancy)
	for _, h := range s.Vaults.Occupancy.Buckets {
		fmt.Fprintf(&b, "    occ<=%-6s %d\n", h.Le, h.Count)
	}
	for _, v := range s.Vaults.PerVault {
		if v.Accepts == 0 && v.Rejects == 0 {
			continue
		}
		fmt.Fprintf(&b, "    vault %2d: accepts=%-10d rejects=%-8d occ mean=%.1f max=%d\n",
			v.ID, v.Accepts, v.Rejects, v.MeanOcc, v.MaxOcc)
	}
	for _, l := range s.Links {
		fmt.Fprintf(&b, "  %-12s packets=%-10d flits=%-10d retries=%-6d util=%.1f%%\n",
			l.Name, l.Packets, l.Flits, l.Retries, 100*l.Utilization)
	}
	fmt.Fprintf(&b, "  noc: hops=%d credit stalls=%d queue %s\n", s.NoC.Hops, s.NoC.Stalls, s.NoC.Queue)
	fmt.Fprintf(&b, "  host: tag takes=%d waits=%d outstanding %s\n",
		s.Host.TagTakes, s.Host.TagWaits, s.Host.Outstanding)
	return b.String()
}
