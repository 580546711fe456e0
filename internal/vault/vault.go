// Package vault implements the HMC vault controller: the per-vault memory
// controller in the logic layer (Section II-A). Each vault owns sixteen
// DRAM banks behind per-bank request queues and a 32-byte-granularity TSV
// data path whose limited bandwidth (~10 GB/s) is one of the bottlenecks
// the paper identifies (Sections IV-A and IV-F).
//
// The per-bank queue structure is the design choice Figure 14 infers from
// Little's law: saturated outstanding-request counts grow linearly with
// the number of banks accessed, so the controller must dedicate a queue to
// each bank rather than share one.
package vault

import (
	"fmt"

	"hmcsim/internal/dram"
	"hmcsim/internal/obs"
	"hmcsim/internal/packet"
	"hmcsim/internal/phys"
	"hmcsim/internal/sim"
)

// RespOutlet consumes completed transactions, typically the response side
// of the internal NoC. TryOut must be non-blocking; when it reports false
// the vault registers a wake-up via NotifyOut for that transaction.
type RespOutlet interface {
	TryOut(tr *packet.Transaction) bool
	NotifyOut(tr *packet.Transaction, fn func())
}

// Config parameterizes one vault controller.
type Config struct {
	ID             int
	Banks          int // banks per vault (16 in HMC 1.1)
	BankQueueDepth int // requests queued per bank
	Timing         dram.Timing
	Policy         dram.PagePolicy
	// TSVBandwidth is the vault's internal data-path bandwidth. Service
	// time is charged on the counted transaction size (request plus
	// response bytes), which reproduces the ~10 GB/s plateau the paper
	// measures for within-vault access patterns regardless of request
	// size.
	TSVBandwidth phys.Bandwidth
	// TSVWindow bounds how many transactions may sit between bank issue
	// and TSV completion; it throttles banks when the TSV is the
	// bottleneck.
	TSVWindow   int
	CtrlLatency sim.Time // fixed controller pipeline latency per response

	// RecvQueueDepth sizes the controller's shared input buffer between
	// the NoC and the per-bank queues. The dispatcher moves requests out
	// of it into bank queues out of order across banks, so one full bank
	// does not stall traffic to its siblings until the input buffer
	// itself fills with requests for the blocked bank.
	RecvQueueDepth int

	// Trace, when non-nil, observes admissions, rejections and queue
	// occupancy. Nil (the default) keeps the admission path hook a
	// single predictable branch.
	Trace *obs.VaultTracer
}

// DefaultConfig returns the HMC 1.1 vault parameters used by the
// reproduction.
func DefaultConfig(id int) Config {
	return Config{
		ID:             id,
		Banks:          16,
		BankQueueDepth: 128,
		Timing:         dram.DefaultTiming(),
		Policy:         dram.ClosedPage,
		TSVBandwidth:   phys.GBps(10),
		TSVWindow:      8,
		CtrlLatency:    4 * sim.Nanosecond,
		RecvQueueDepth: 32,
	}
}

// Vault is one vault controller plus its DRAM banks.
type Vault struct {
	eng  *sim.Engine
	cfg  Config
	resp RespOutlet

	banks    []*dram.Bank
	recvQ    *sim.Queue[*packet.Transaction]
	inRecv   []int // inRecv[b] counts recvQ's requests for bank b
	queues   []*sim.Queue[*packet.Transaction]
	bankBusy []bool

	tsv       *sim.Server
	tsvTokens *sim.TokenPool

	out         *sim.Queue[*packet.Transaction]
	pumping     bool
	parked      bool // pumpFn waits on the outlet for the refused head of out
	dispatching bool
	acceptWait  sim.Waiters

	// Pre-bound callbacks and in-flight rings: each pipeline stage fires
	// in a deterministic FIFO order (monotone per-bank data completions,
	// serialized TSV reservations, constant controller latency), so the
	// transaction a callback concerns is always the head of the matching
	// ring and no per-event closures are needed.
	kickFns      []func() // kickFns[b] retries bank b on TSV-token release
	bankReadyFns []func() // bankReadyFns[b] frees bank b and re-kicks it
	dataDoneFns  []func() // dataDoneFns[b] moves bank b's head into the TSV
	dataQ        []sim.Ring[*packet.Transaction]
	tsvFn        func()
	tsvQ         sim.Ring[*packet.Transaction]
	ctrlFn       func()
	ctrlQ        sim.Ring[*packet.Transaction]
	pumpFn       func()

	reads, writes uint64
	bytesServed   uint64

	// nq mirrors the total occupancy of the bank queues, so tracing (and
	// Queued) read it in O(1) instead of scanning sixteen queues.
	nq    int
	trace *obs.VaultTracer
}

// New builds a vault. resp receives completed transactions.
func New(eng *sim.Engine, cfg Config, resp RespOutlet) *Vault {
	if cfg.Banks <= 0 || cfg.BankQueueDepth <= 0 {
		panic(fmt.Sprintf("vault %d: invalid geometry %+v", cfg.ID, cfg))
	}
	if err := cfg.Timing.Validate(); err != nil {
		panic(err)
	}
	if cfg.RecvQueueDepth <= 0 {
		cfg.RecvQueueDepth = 16
	}
	v := &Vault{
		eng:       eng,
		cfg:       cfg,
		resp:      resp,
		banks:     make([]*dram.Bank, cfg.Banks),
		recvQ:     sim.NewQueue[*packet.Transaction](cfg.RecvQueueDepth),
		inRecv:    make([]int, cfg.Banks),
		queues:    make([]*sim.Queue[*packet.Transaction], cfg.Banks),
		bankBusy:  make([]bool, cfg.Banks),
		tsv:       sim.NewServer(eng),
		tsvTokens: sim.NewTokenPool(cfg.TSVWindow),
		out:       sim.NewQueue[*packet.Transaction](0),
		trace:     cfg.Trace,
	}
	v.kickFns = make([]func(), cfg.Banks)
	v.bankReadyFns = make([]func(), cfg.Banks)
	v.dataDoneFns = make([]func(), cfg.Banks)
	v.dataQ = make([]sim.Ring[*packet.Transaction], cfg.Banks)
	for i := range v.banks {
		v.banks[i] = dram.NewBank(cfg.Timing, cfg.Policy)
		if cfg.Timing.TREFI > 0 {
			// Stagger refresh across the cube so vaults and banks never
			// refresh in lockstep, as real controllers schedule it.
			slot := sim.Time(cfg.ID*cfg.Banks + i)
			v.banks[i].SetRefreshPhase(slot * cfg.Timing.TREFI / sim.Time(16*cfg.Banks))
		}
		v.queues[i] = sim.NewQueue[*packet.Transaction](cfg.BankQueueDepth)
		b := i
		v.kickFns[b] = func() { v.kickBank(b) }
		v.bankReadyFns[b] = func() {
			v.bankBusy[b] = false
			v.kickBank(b)
		}
		v.dataDoneFns[b] = func() { v.dataDone(b) }
	}
	v.tsvFn = v.tsvDone
	v.ctrlFn = v.ctrlDone
	v.pumpFn = func() {
		v.parked = false
		v.pumpOut()
	}
	return v
}

// ID returns the vault number.
func (v *Vault) ID() int { return v.cfg.ID }

// TryAccept enqueues tr into the controller's shared input buffer. It
// reports false, leaving the vault unchanged, when the buffer is full;
// the caller should register a retry with NotifyAccept. This is the
// back-pressure boundary that pushes queuing out into the NoC and
// ultimately the host.
func (v *Vault) TryAccept(tr *packet.Transaction) bool {
	if tr.Bank < 0 || tr.Bank >= v.cfg.Banks {
		panic(fmt.Sprintf("vault %d: transaction for bank %d", v.cfg.ID, tr.Bank))
	}
	now := v.eng.Now()
	// Fast path: move straight into the bank queue when possible.
	if v.recvQ.Empty() && v.queues[tr.Bank].Push(tr) {
		v.nq++
		tr.TVaultIn = now
		v.trace.OnAccept(v.nq)
		v.kickBank(tr.Bank)
		return true
	}
	if !v.recvQ.Push(tr) {
		v.trace.OnReject()
		return false
	}
	v.inRecv[tr.Bank]++
	tr.TVaultIn = now
	v.trace.OnAccept(v.nq + v.recvQ.Len())
	v.dispatch(tr.Bank)
	return true
}

// dispatch moves bank b's requests from the input buffer into its bank
// queue, oldest first, while the queue has room. Requests for other banks
// stay put: out of order across banks, in order within a bank.
//
// Looking at bank b alone is exact because, between calls, every buffered
// request's bank queue is full. Bank queues lose requests only in
// kickBank, which dispatches that bank, and the fast path in TryAccept
// runs only when the buffer is empty, so the only bank that can have room
// is the one whose queue just shrank (kickBank) or whose request just
// arrived (TryAccept). A move's own kickBank(b) may issue and free a slot;
// its re-entrant call returns at once, and this loop sees the slot.
func (v *Vault) dispatch(b int) {
	if v.dispatching || v.inRecv[b] == 0 {
		return
	}
	v.dispatching = true
	q := v.queues[b]
	moved := false
	// inRecv[b] > 0 keeps a bank-b request at or past i: every request
	// before i is for another bank.
	for i := 0; v.inRecv[b] > 0 && !q.Full(); {
		tr := v.recvQ.At(i)
		if tr.Bank != b {
			i++
			continue
		}
		q.Push(tr)
		v.nq++
		v.recvQ.RemoveAt(i)
		v.inRecv[b]--
		v.kickBank(b)
		moved = true
	}
	v.dispatching = false
	if moved {
		v.wakeAcceptors()
	}
}

// NotifyAccept registers fn to run the next time any bank queue frees a
// slot.
func (v *Vault) NotifyAccept(fn func()) { v.acceptWait.Add(fn) }

func (v *Vault) wakeAcceptors() { v.acceptWait.Fire() }

// kickBank issues the head of bank b's queue if the bank is idle and the
// TSV window has room.
func (v *Vault) kickBank(b int) {
	if v.bankBusy[b] || v.queues[b].Empty() {
		return
	}
	if !v.tsvTokens.TryAcquire(1) {
		v.tsvTokens.Notify(v.kickFns[b])
		return
	}
	now := v.eng.Now()
	tr, _ := v.queues[b].Pop()
	v.nq--
	v.bankBusy[b] = true
	v.dispatch(b)

	tr.TIssued = now
	if tr.Write {
		v.writes++
	} else {
		v.reads++
	}
	v.bytesServed += uint64(tr.Size)

	dataDone, bankReady := v.banks[b].Access(now, tr.Row, tr.Size)
	v.eng.At(bankReady, v.bankReadyFns[b])
	// Per-bank data completions are monotone (the bank model's data bus
	// cursor only moves forward), so the transaction dataDoneFns[b]
	// concerns is always the head of the bank's in-flight ring.
	v.dataQ[b].Push(tr)
	v.eng.At(dataDone, v.dataDoneFns[b])
}

// dataDone fires when bank b's oldest outstanding access finishes its
// data burst: the completed access crosses the vault's internal data
// path; service time covers the counted request+response bytes.
func (v *Vault) dataDone(b int) {
	tr := v.dataQ[b].Pop()
	v.tsvQ.Push(tr)
	v.tsv.Reserve(v.cfg.TSVBandwidth.TimeFor(tr.RoundTripBytes()), v.tsvFn)
}

// tsvDone fires when the TSV data path finishes its oldest reservation;
// reservations complete in Reserve order, so the head of tsvQ is the
// transaction that just crossed.
func (v *Vault) tsvDone() {
	tr := v.tsvQ.Pop()
	v.tsvTokens.Release(1)
	v.ctrlQ.Push(tr)
	v.eng.Schedule(v.cfg.CtrlLatency, v.ctrlFn)
}

// ctrlDone fires CtrlLatency after a transaction crossed the TSV; the
// latency is constant, so completions stay in FIFO order.
func (v *Vault) ctrlDone() {
	tr := v.ctrlQ.Pop()
	v.out.Push(tr)
	v.pumpOut()
}

// pumpOut drains completed transactions into the response outlet.
//
// A refused head parks the vault until pumpFn fires, and meanwhile
// pumpOut returns at once. Every call it skips would have failed: only
// pumpOut pops the head, the outlet refused the head for want of a
// credit on the pool it routes to, and a release, the only thing that
// adds credit, fires pumpFn. So the head keeps one waiter however many
// completions queue behind it, registered where the first of one waiter
// per completion was, and every wake-up that could succeed still runs.
func (v *Vault) pumpOut() {
	if v.pumping || v.parked {
		return
	}
	v.pumping = true
	defer func() { v.pumping = false }()
	for {
		tr, ok := v.out.Peek()
		if !ok {
			return
		}
		if !v.resp.TryOut(tr) {
			v.parked = true // before NotifyOut, which may fire pumpFn at once
			v.resp.NotifyOut(tr, v.pumpFn)
			return
		}
		v.out.Pop()
		tr.TVaultOut = v.eng.Now()
	}
}

// QueueLen returns the occupancy of bank b's request queue.
func (v *Vault) QueueLen(b int) int { return v.queues[b].Len() }

// RecvQueued returns the occupancy of the shared input buffer.
func (v *Vault) RecvQueued() int { return v.recvQ.Len() }

// Queued returns the total requests waiting in all bank queues.
func (v *Vault) Queued() int { return v.nq }

// Reads returns the number of read transactions issued to DRAM.
func (v *Vault) Reads() uint64 { return v.reads }

// Writes returns the number of write transactions issued to DRAM.
func (v *Vault) Writes() uint64 { return v.writes }

// BytesServed returns the total data bytes moved by the banks.
func (v *Vault) BytesServed() uint64 { return v.bytesServed }

// Bank exposes bank b's DRAM model for inspection in tests and stats.
func (v *Vault) Bank(b int) *dram.Bank { return v.banks[b] }

// TSVUtilization reports the internal data path's busy fraction.
func (v *Vault) TSVUtilization(now sim.Time) float64 { return v.tsv.Utilization(now) }

// OutQueued returns completed transactions waiting for the response
// network (diagnostics).
func (v *Vault) OutQueued() int { return v.out.Len() }

// TSVHeld returns how many TSV window slots are currently held.
func (v *Vault) TSVHeld() int { return v.cfg.TSVWindow - v.tsvTokens.Available() }
