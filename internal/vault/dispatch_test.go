package vault

import (
	"fmt"
	"testing"

	"hmcsim/internal/packet"
	"hmcsim/internal/sim"
)

// rescanMovable is the dispatcher's former full rescan, kept read-only:
// it returns the position of the first buffered request whose bank queue
// has room, or -1. dispatch(b) looks at one bank only, which is exact
// only while this finds nothing between engine steps.
func rescanMovable(v *Vault) int {
	for i := 0; i < v.recvQ.Len(); i++ {
		if !v.queues[v.recvQ.At(i).Bank].Full() {
			return i
		}
	}
	return -1
}

// gate is a response outlet that a seeded schedule opens and closes;
// opening it runs the vault's registered wake-ups.
type gate struct {
	closed  bool
	got     []*packet.Transaction
	waiters []func()
}

func (g *gate) TryOut(tr *packet.Transaction) bool {
	if g.closed {
		return false
	}
	g.got = append(g.got, tr)
	return true
}

func (g *gate) NotifyOut(_ *packet.Transaction, fn func()) { g.waiters = append(g.waiters, fn) }

func (g *gate) open() {
	g.closed = false
	w := g.waiters
	g.waiters = nil
	for _, fn := range w {
		fn()
	}
}

// dispatchRig drives one vault with seeded arrivals confined to its first
// banks: three sources, each retrying a rejected request on the vault's
// accept wake-up, as the NoC does.
type dispatchRig struct {
	eng      *sim.Engine
	v        *Vault
	out      *gate
	arrivals [][]*packet.Transaction // accepted requests per bank, in order
	accepted int
}

func newDispatchRig(seed uint64, banks int) *dispatchRig {
	rng := sim.NewRand(seed)
	cfg := DefaultConfig(0)
	cfg.BankQueueDepth = 2 + rng.Intn(3)
	cfg.RecvQueueDepth = 4 + rng.Intn(5)
	cfg.TSVWindow = 2 + rng.Intn(7)
	r := &dispatchRig{eng: sim.NewEngine(), out: &gate{}, arrivals: make([][]*packet.Transaction, cfg.Banks)}
	r.v = New(r.eng, cfg, r.out)

	const perSource = 150
	id := uint64(0)
	for s := 0; s < 3; s++ {
		left := perSource
		var next func()
		var try func(tr *packet.Transaction)
		try = func(tr *packet.Transaction) {
			if !r.v.TryAccept(tr) {
				r.v.NotifyAccept(func() { try(tr) })
				return
			}
			r.accepted++
			r.arrivals[tr.Bank] = append(r.arrivals[tr.Bank], tr)
			if left > 0 {
				r.eng.Schedule(sim.Time(rng.Intn(12))*sim.Nanosecond, next)
			}
		}
		next = func() {
			left--
			id++
			tr := &packet.Transaction{ID: id, Bank: rng.Intn(banks), Row: uint64(rng.Intn(8)),
				Size: 16 << rng.Intn(4), Write: rng.Intn(4) == 0, TIssued: -1}
			try(tr)
		}
		r.eng.Schedule(sim.Time(rng.Intn(12))*sim.Nanosecond, next)
	}
	// Close the outlet for a while, now and then, so completed requests
	// back up into the vault.
	for at := sim.Time(0); at < 16*sim.Microsecond; at += sim.Time(50+rng.Intn(400)) * sim.Nanosecond {
		if rng.Intn(2) == 0 {
			r.eng.At(at, func() { r.out.closed = true })
		} else {
			r.eng.At(at, r.out.open)
		}
	}
	r.eng.At(16*sim.Microsecond, r.out.open)
	return r
}

// check holds the vault to the dispatcher's invariants after one engine
// step.
func (r *dispatchRig) check(t *testing.T, step int) {
	t.Helper()
	v := r.v
	if i := rescanMovable(v); i >= 0 {
		tr := v.recvQ.At(i)
		t.Fatalf("step %d: buffered request %d for bank %d fits its queue (%d/%d)",
			step, tr.ID, tr.Bank, v.queues[tr.Bank].Len(), v.queues[tr.Bank].Cap())
	}
	count := make([]int, len(v.inRecv))
	for i := 0; i < v.recvQ.Len(); i++ {
		count[v.recvQ.At(i).Bank]++
	}
	for b, n := range count {
		if v.inRecv[b] != n {
			t.Fatalf("step %d: inRecv[%d] = %d, the buffer holds %d", step, b, v.inRecv[b], n)
		}
	}
	// Per bank, the accepted requests are: the issued ones, in issue
	// order, then the bank queue, then the bank's buffered requests.
	for b, arr := range r.arrivals {
		k := 0
		for k < len(arr) && arr[k].TIssued >= 0 {
			if k > 0 && arr[k].TIssued <= arr[k-1].TIssued {
				t.Fatalf("step %d: bank %d issued request %d at %v, after %d at %v",
					step, b, arr[k].ID, arr[k].TIssued, arr[k-1].ID, arr[k-1].TIssued)
			}
			k++
		}
		var waiting []*packet.Transaction
		for i := 0; i < v.queues[b].Len(); i++ {
			waiting = append(waiting, v.queues[b].At(i))
		}
		for i := 0; i < v.recvQ.Len(); i++ {
			if tr := v.recvQ.At(i); tr.Bank == b {
				waiting = append(waiting, tr)
			}
		}
		if len(waiting) != len(arr)-k {
			t.Fatalf("step %d: bank %d has %d accepted requests unissued, %d queued or buffered",
				step, b, len(arr)-k, len(waiting))
		}
		for i, tr := range waiting {
			if tr != arr[k+i] {
				t.Fatalf("step %d: bank %d holds request %d where arrival order has %d",
					step, b, tr.ID, arr[k+i].ID)
			}
		}
	}
}

// TestDispatchMatchesFullRescan holds dispatch(b), which looks at one
// bank only, to the full rescan it replaced. Seeded arrivals over 1, 2,
// 4 and 16 banks meet small bank queues and input buffers, a narrow TSV
// window and an outlet that blocks at times. After every engine step no
// buffered request fits its bank queue, inRecv matches the buffer, and
// each bank issues its requests in arrival order; after Drain every
// accepted request has completed exactly once.
func TestDispatchMatchesFullRescan(t *testing.T) {
	for _, banks := range []int{1, 2, 4, 16} {
		for seed := uint64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("banks%d/seed%d", banks, seed), func(t *testing.T) {
				r := newDispatchRig(seed, banks)
				maxBuffered := 0
				for step := 0; r.eng.Step(); step++ {
					r.check(t, step)
					maxBuffered = max(maxBuffered, r.v.RecvQueued())
				}
				if maxBuffered == 0 {
					t.Fatal("the input buffer never held a request")
				}
				if len(r.out.got) != r.accepted || r.accepted != 3*150 {
					t.Fatalf("%d accepted, %d completed, want %d", r.accepted, len(r.out.got), 3*150)
				}
				seen := make(map[uint64]bool)
				for _, tr := range r.out.got {
					if seen[tr.ID] {
						t.Fatalf("request %d completed twice", tr.ID)
					}
					seen[tr.ID] = true
				}
				if n := r.v.RecvQueued() + r.v.Queued() + r.v.OutQueued() + r.v.TSVHeld(); n != 0 {
					t.Fatalf("after drain: %d buffered, %d queued, %d waiting to leave, %d TSV slots held",
						r.v.RecvQueued(), r.v.Queued(), r.v.OutQueued(), r.v.TSVHeld())
				}
			})
		}
	}
}

// sink is a response outlet that never blocks and keeps the completed
// requests for reuse.
type sink struct{ done []*packet.Transaction }

func (s *sink) TryOut(tr *packet.Transaction) bool {
	s.done = append(s.done, tr)
	return true
}

func (s *sink) NotifyOut(*packet.Transaction, func()) {}

// newDispatchBacklog fills a default vault's two first banks: both bank
// queues full and the 32-entry input buffer holding requests for both.
// Each call of the returned op runs the engine until one bank access has
// completed and then hands the vault one fresh request, the completed one
// reused for the same bank, stepping on while the buffer is full; the
// backlog holds steady.
func newDispatchBacklog() func() {
	eng := sim.NewEngine()
	out := &sink{}
	cfg := DefaultConfig(0)
	v := New(eng, cfg, out)
	for i := 0; ; i++ {
		tr := &packet.Transaction{ID: uint64(i), Bank: i % 2, Row: uint64(i), Size: 64}
		if !v.TryAccept(tr) {
			break
		}
	}
	if v.RecvQueued() != cfg.RecvQueueDepth || v.QueueLen(0) != cfg.BankQueueDepth || v.QueueLen(1) != cfg.BankQueueDepth {
		panic(fmt.Sprintf("vault backlog: %d buffered, bank queues %d and %d", v.RecvQueued(), v.QueueLen(0), v.QueueLen(1)))
	}
	return func() {
		for len(out.done) == 0 {
			eng.Step()
		}
		tr := out.done[len(out.done)-1]
		out.done = out.done[:len(out.done)-1]
		for !v.TryAccept(tr) {
			eng.Step()
		}
	}
}

// BenchmarkVaultDispatch measures one bank access and one fresh request
// against a full input buffer, the vault's cost on bank-bound runs. It
// must report 0 allocs/op.
func BenchmarkVaultDispatch(b *testing.B) {
	op := newDispatchBacklog()
	for i := 0; i < 64; i++ {
		op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestVaultDispatchDoesNotAllocate pins the benchmark's 0 allocs/op.
func TestVaultDispatchDoesNotAllocate(t *testing.T) {
	op := newDispatchBacklog()
	for i := 0; i < 64; i++ {
		op()
	}
	if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
		t.Errorf("vault dispatch: %.1f allocs/op, want 0", allocs)
	}
}
