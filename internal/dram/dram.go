// Package dram models the timing of one DRAM bank inside an HMC vault.
//
// HMC DRAM arrays are smaller and faster than commodity DDR parts. The
// paper reports tRCD + tCL + tRP of roughly 41 ns (citing Rosenfeld's
// dissertation and [4]); the defaults here split that figure evenly and
// use a 32-byte data-bus granularity per beat, matching the vault's
// 32-TSV data bus (Section II-A).
package dram

import (
	"fmt"

	"hmcsim/internal/sim"
)

// PagePolicy selects what the controller does with the row after an access.
type PagePolicy int

const (
	// ClosedPage precharges immediately after every access; random traffic
	// (the paper's GUPS workloads) performs best with it and it is what
	// HMC vault controllers implement.
	ClosedPage PagePolicy = iota
	// OpenPage leaves the row open, betting on locality. Provided for the
	// ablation benchmarks.
	OpenPage
)

func (p PagePolicy) String() string {
	if p == OpenPage {
		return "open-page"
	}
	return "closed-page"
}

// Timing holds the bank timing parameters.
type Timing struct {
	TRCD   sim.Time // activate to column command
	TCL    sim.Time // column command to first data
	TRP    sim.Time // precharge period
	TRAS   sim.Time // activate to precharge minimum
	TRTP   sim.Time // read to precharge; lets precharge overlap the burst
	TBurst sim.Time // one 32-byte beat on the vault data bus

	// TREFI is the per-bank refresh interval and TRFC the refresh cycle
	// time. Accesses arriving during a refresh wait it out, which is one
	// of the latency-jitter sources behind the distributions of
	// Figure 10. A zero TREFI disables refresh.
	TREFI sim.Time
	TRFC  sim.Time
}

// DefaultTiming returns the HMC 1.1 vault DRAM timings used throughout
// the reproduction: tRCD+tCL+tRP ~= 41.25 ns, tRAS 21.6 ns, and 3.2 ns
// per 32 B beat (32 B every 3.2 ns = 10 GB/s, the vault's internal cap).
func DefaultTiming() Timing {
	return Timing{
		TRCD:   13750 * sim.Picosecond,
		TCL:    13750 * sim.Picosecond,
		TRP:    13750 * sim.Picosecond,
		TRAS:   21600 * sim.Picosecond,
		TRTP:   7500 * sim.Picosecond,
		TBurst: 3200 * sim.Picosecond,
		TREFI:  3900 * sim.Nanosecond,
		TRFC:   160 * sim.Nanosecond,
	}
}

// Validate reports an error for non-physical parameters.
func (t Timing) Validate() error {
	if t.TRCD <= 0 || t.TCL <= 0 || t.TRP <= 0 || t.TRAS <= 0 || t.TBurst <= 0 {
		return fmt.Errorf("dram: all timing parameters must be positive: %+v", t)
	}
	if t.TRAS < t.TRCD {
		return fmt.Errorf("dram: tRAS (%v) < tRCD (%v)", t.TRAS, t.TRCD)
	}
	return nil
}

// TRC returns the minimum activate-to-activate time for one bank.
func (t Timing) TRC() sim.Time { return t.TRAS + t.TRP }

// BeatBytes is the vault data bus granularity: payloads larger than one
// beat are split into multiple 32 B transfers (Section IV-A).
const BeatBytes = 32

// Beats returns how many data-bus beats a payload of n bytes needs.
func Beats(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + BeatBytes - 1) / BeatBytes
}

// Bank is the timing state machine of one DRAM bank. It is not
// concurrency-safe; the owning vault controller drives it from simulation
// events only.
type Bank struct {
	timing Timing
	policy PagePolicy

	nextActivate sim.Time // earliest start of the next activate
	busFree      sim.Time // earliest start of the next data burst
	openRow      uint64
	rowValid     bool
	nextRefresh  sim.Time

	accesses  uint64
	rowHits   uint64
	refreshes uint64
}

// NewBank returns an idle bank.
func NewBank(t Timing, p PagePolicy) *Bank {
	return &Bank{timing: t, policy: p, nextRefresh: t.TREFI}
}

// SetRefreshPhase offsets the bank's first refresh; vault controllers
// stagger their banks so the whole cube never refreshes at once.
func (b *Bank) SetRefreshPhase(phase sim.Time) {
	if b.timing.TREFI > 0 {
		b.nextRefresh = phase%b.timing.TREFI + b.timing.TREFI
	}
}

// refreshDelay advances the refresh schedule past start and returns the
// adjusted earliest start for an access arriving at start.
func (b *Bank) refreshDelay(start sim.Time) sim.Time {
	if b.timing.TREFI <= 0 {
		return start
	}
	// Refreshes whose window ended before start happened while idle.
	for b.nextRefresh+b.timing.TRFC <= start {
		b.nextRefresh += b.timing.TREFI
		b.refreshes++
	}
	// An access arriving inside the refresh window waits it out.
	if b.nextRefresh <= start {
		start = b.nextRefresh + b.timing.TRFC
		b.nextRefresh += b.timing.TREFI
		b.refreshes++
		b.rowValid = false
	}
	return start
}

// Access performs a read or write of size bytes against row at time now.
// It returns when the last data beat completes (dataDone) and when the
// bank can begin its next activate (bankReady). The caller serializes
// calls; passing a now earlier than the bank's ready time simply waits.
func (b *Bank) Access(now sim.Time, row uint64, size int) (dataDone, bankReady sim.Time) {
	beats := sim.Time(Beats(size))
	burst := beats * b.timing.TBurst
	b.accesses++

	now = b.refreshDelay(now)
	if b.policy == OpenPage && b.rowValid && b.openRow == row {
		// Row hit: column access only.
		b.rowHits++
		start := now
		if b.busFree > start {
			start = b.busFree
		}
		dataDone = start + b.timing.TCL + burst
		b.busFree = dataDone
		// The row stays open; the next activate (on a miss) must wait for
		// tRAS from the original activate, already satisfied here, plus
		// precharge on demand.
		if dataDone+b.timing.TRP > b.nextActivate {
			b.nextActivate = dataDone + b.timing.TRP
		}
		return dataDone, b.nextActivate
	}

	// Row miss (or closed-page): activate, read, precharge. With
	// auto-precharge the precharge begins tRTP after the column command
	// (but no earlier than tRAS from the activate) while the data burst
	// drains through the CAS pipeline — so the bank cycle time is
	// max(tRAS, tRCD+tRTP) + tRP regardless of burst length.
	start := now
	if b.nextActivate > start {
		start = b.nextActivate
	}
	dataStart := start + b.timing.TRCD + b.timing.TCL
	if b.busFree > dataStart {
		dataStart = b.busFree
	}
	dataDone = dataStart + burst
	b.busFree = dataDone

	preStart := start + b.timing.TRAS
	if rtp := start + b.timing.TRCD + b.timing.TRTP; rtp > preStart {
		preStart = rtp
	}
	if b.policy == ClosedPage {
		b.nextActivate = preStart + b.timing.TRP
		b.rowValid = false
	} else {
		b.openRow = row
		b.rowValid = true
		// Next activate only needed on a miss; model its earliest start as
		// after the precharge point.
		b.nextActivate = preStart + b.timing.TRP
	}
	return dataDone, b.nextActivate
}

// Accesses returns the total access count.
func (b *Bank) Accesses() uint64 { return b.accesses }

// RowHits returns how many accesses hit an open row (open-page only).
func (b *Bank) RowHits() uint64 { return b.rowHits }

// Refreshes returns how many refresh cycles the bank has performed.
func (b *Bank) Refreshes() uint64 { return b.refreshes }
