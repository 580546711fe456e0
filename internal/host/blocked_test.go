package host

import (
	"fmt"
	"reflect"
	"testing"

	"hmcsim/internal/hmc"
	"hmcsim/internal/link"
	"hmcsim/internal/packet"
	"hmcsim/internal/sim"
	"hmcsim/internal/traffic"
)

// fakeDev serves real request link directions to a controller. Its
// receiver keeps every delivered flit in its input buffer until the test
// releases it, so the test alone decides when tokens come back.
type fakeDev struct {
	dirs      []*link.Dir
	held      []int                         // flits delivered on each link and not yet released
	onDeliver func(l int, p *packet.Packet) // optional
}

func newFakeDev(eng *sim.Engine, links, bufFlits int) *fakeDev {
	d := &fakeDev{held: make([]int, links)}
	cfg := link.DefaultConfig()
	cfg.RxBufFlits = bufFlits
	for l := 0; l < links; l++ {
		l := l
		d.dirs = append(d.dirs, link.NewDir(eng, fmt.Sprintf("req%d", l), cfg, func(p *packet.Packet) {
			d.held[l] += p.Flits()
			if d.onDeliver != nil {
				d.onDeliver(l, p)
			}
		}))
	}
	return d
}

func (d *fakeDev) ReqDir(l int) *link.Dir { return d.dirs[l] }
func (d *fakeDev) ReleaseResp(int, int)   {}
func (d *fakeDev) Links() int             { return len(d.dirs) }

// release frees up to n of the flits link l has delivered.
func (d *fakeDev) release(l, n int) {
	if n = min(n, d.held[l]); n > 0 {
		d.held[l] -= n
		d.dirs[l].Release(n)
	}
}

// refController is the controller's blocked-request path with one token
// waiter per parked request: every park registers a waiter of its own on
// the link's pool, and each waiter pops its ring's head and runs the full
// send attempt again. The equivalence test holds Controller to it.
type refController struct {
	dev      Device
	rr       int
	blockedq []sim.Ring[*packet.Packet]
	retryFns []func()
}

func newRefController(dev Device) *refController {
	c := &refController{
		dev:      dev,
		blockedq: make([]sim.Ring[*packet.Packet], dev.Links()),
		retryFns: make([]func(), dev.Links()),
	}
	for l := range c.retryFns {
		l := l
		c.retryFns[l] = func() { c.sendReq(c.blockedq[l].Pop()) }
	}
	return c
}

func (c *refController) sendReq(pkt *packet.Packet) {
	links := c.dev.Links()
	first := c.rr
	c.rr = (c.rr + 1) % links
	for i := 0; i < links; i++ {
		l := (first + i) % links
		pkt.Link = l
		pkt.Tr.Link = l
		if c.dev.ReqDir(l).TrySend(pkt) {
			return
		}
	}
	c.blockedq[first].Push(pkt)
	c.dev.ReqDir(first).NotifyTokens(c.retryFns[first])
}

// twinOp is one scripted action: a request handed to the controller, or
// a release of delivered flits on one link.
type twinOp struct {
	at    sim.Time
	kind  int // opRead, opWrite5, opWrite9 or opRelease
	link  int // opRelease only
	flits int // opRelease only
}

const (
	opRead    = iota // 64 B read: 1 flit
	opWrite5         // 64 B write: 5 flits
	opWrite9         // 128 B write: 9 flits
	opRelease        // free up to flits delivered flits on link
)

// sendRec is one request leaving the controller: which, on what link,
// when. Requests that leave in the same engine step are logged in ID
// order; each link's delivery log pins their order on that link.
type sendRec struct {
	ID   uint64
	Link int
	At   sim.Time
}

// twinSide is one controller, the reference or the real one, behind its
// own engine and fake device.
type twinSide struct {
	eng    *sim.Engine
	dev    *fakeDev
	send   func(*packet.Packet)
	rr     func() int
	parked func(l int) []*packet.Packet // link l's parked requests, in order

	pkts      []*packet.Packet // every request handed over, indexed by ID
	sent      []bool
	sends     []sendRec
	delivered [][]uint64 // request IDs in delivery order, per link
}

// twinState is what both sides must agree on after every engine step.
type twinState struct {
	Now       sim.Time
	Fired     uint64
	Sends     []sendRec
	Delivered [][]uint64
	Tokens    []int
	RR        int
	Parked    [][]uint64 // request IDs parked on each link, in order
}

func newTwinSide(links, bufFlits int, ref bool) *twinSide {
	s := &twinSide{eng: sim.NewEngine(), delivered: make([][]uint64, links)}
	s.dev = newFakeDev(s.eng, links, bufFlits)
	s.dev.onDeliver = func(l int, p *packet.Packet) { s.delivered[l] = append(s.delivered[l], p.Tr.ID) }
	if ref {
		c := newRefController(s.dev)
		s.send, s.rr = c.sendReq, func() int { return c.rr }
		s.parked = func(l int) []*packet.Packet {
			q := &c.blockedq[l]
			pkts := make([]*packet.Packet, q.Len())
			for i := range pkts {
				pkts[i] = q.At(i)
			}
			return pkts
		}
	} else {
		c := NewController(s.eng, DefaultConfig(), s.dev)
		s.send, s.rr = c.sendReq, func() int { return c.rr }
		s.parked = func(l int) []*packet.Packet { return c.blocked[l] }
	}
	return s
}

func (s *twinSide) schedule(ops []twinOp) {
	for _, op := range ops {
		op := op
		s.eng.At(op.at, func() { s.apply(op) })
	}
}

func (s *twinSide) apply(op twinOp) {
	if op.kind == opRelease {
		s.dev.release(op.link, op.flits)
		return
	}
	tr := &packet.Transaction{ID: uint64(len(s.pkts)), Size: 64, Write: op.kind != opRead}
	if op.kind == opWrite9 {
		tr.Size = 128
	}
	pkt := tr.RequestPacket(0)
	s.pkts = append(s.pkts, pkt)
	s.sent = append(s.sent, false)
	s.send(pkt)
}

// scan logs the requests that left the controller in the last step: handed
// over, not logged yet, and parked on no link.
func (s *twinSide) scan() {
	parked := make(map[*packet.Packet]bool)
	for l := range s.dev.dirs {
		for _, p := range s.parked(l) {
			parked[p] = true
		}
	}
	for id, p := range s.pkts {
		if !s.sent[id] && !parked[p] {
			s.sent[id] = true
			s.sends = append(s.sends, sendRec{ID: uint64(id), Link: p.Link, At: s.eng.Now()})
		}
	}
}

func (s *twinSide) parkedTotal() int {
	n := 0
	for l := range s.dev.dirs {
		n += len(s.parked(l))
	}
	return n
}

func (s *twinSide) state() twinState {
	st := twinState{Now: s.eng.Now(), Fired: s.eng.Fired(), Sends: s.sends, Delivered: s.delivered, RR: s.rr()}
	for l := range s.dev.dirs {
		st.Tokens = append(st.Tokens, s.dev.dirs[l].TokensAvailable())
		ids := []uint64{}
		for _, p := range s.parked(l) {
			ids = append(ids, p.Tr.ID)
		}
		st.Parked = append(st.Parked, ids)
	}
	return st
}

// runTwin plays ops against the reference and the real controller and
// fails at the first engine step after which they disagree. Once the
// script is spent, every link releases all its delivered flits each
// nanosecond until no request is left parked.
func runTwin(t *testing.T, links, bufFlits int, ops []twinOp) {
	t.Helper()
	ref, got := newTwinSide(links, bufFlits, true), newTwinSide(links, bufFlits, false)
	sides := []*twinSide{ref, got}
	for _, s := range sides {
		s.schedule(ops)
	}
	for step := 0; ; step++ {
		okRef, okGot := ref.eng.Step(), got.eng.Step()
		if okRef != okGot {
			t.Fatalf("step %d: reference fired %v, controller fired %v", step, okRef, okGot)
		}
		if !okRef {
			if ref.parkedTotal() == 0 {
				break
			}
			for _, s := range sides {
				s := s
				held := 0
				for l := range s.dev.held {
					held += s.dev.held[l]
				}
				if held == 0 {
					t.Fatalf("step %d: %d requests parked with every token free", step, s.parkedTotal())
				}
				s.eng.Schedule(sim.Nanosecond, func() {
					for l := range s.dev.held {
						s.dev.release(l, s.dev.held[l])
					}
				})
			}
			continue
		}
		ref.scan()
		got.scan()
		if want, have := ref.state(), got.state(); !reflect.DeepEqual(want, have) {
			t.Fatalf("step %d: controller diverged from the reference\nreference: %+v\ncontroller: %+v", step, want, have)
		}
	}
	if len(got.sends) != len(got.pkts) {
		t.Fatalf("%d of %d requests sent", len(got.sends), len(got.pkts))
	}
}

// randomOps draws a seeded script: 1-flit reads and 5- and 9-flit writes
// mixed with releases of 1-9 flits on random links, on a 5 ns grid so
// that many actions share an instant.
func randomOps(seed uint64, links, n int) []twinOp {
	r := sim.NewRand(seed)
	ops := make([]twinOp, n)
	for i := range ops {
		op := twinOp{at: sim.Time(r.Intn(200)) * 5 * sim.Nanosecond}
		switch k := r.Intn(20); {
		case k < 8:
			op.kind = opRead
		case k < 11:
			op.kind = opWrite5
		case k < 13:
			op.kind = opWrite9
		default:
			op.kind, op.link, op.flits = opRelease, r.Intn(links), 1+r.Intn(9)
		}
		ops[i] = op
	}
	return ops
}

// TestControllerMatchesPerRequestWaiters holds the one-waiter-per-link
// wake-up to the per-request waiters it replaced: under seeded request
// mixes and releases over one to four links (the HMC maximum), every
// request leaves at the same time, on the same link and in the same
// order, and rr, each link's free tokens and each link's parked requests
// agree after every engine step.
func TestControllerMatchesPerRequestWaiters(t *testing.T) {
	for links := 1; links <= 4; links++ {
		for seed := uint64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("links%d/seed%d", links, seed), func(t *testing.T) {
				runTwin(t, links, 12, randomOps(seed, links, 600))
			})
		}
	}
}

// TestControllerTooLargeHeadRequest parks a 9-flit write at the head of
// link 0's list with 1-flit reads behind it, then frees 1-9 flits on
// link 0 alone: the write cannot leave below 9 free flits, yet its
// attempt still advances rr, and the reads behind it take the tokens.
func TestControllerTooLargeHeadRequest(t *testing.T) {
	const buf = 12
	for links := 1; links <= 4; links++ {
		for free := 1; free <= 9; free++ {
			t.Run(fmt.Sprintf("links%d/free%d", links, free), func(t *testing.T) {
				var ops []twinOp
				for i := 0; i < buf*links; i++ { // fill every link
					ops = append(ops, twinOp{kind: opRead})
				}
				ops = append(ops, twinOp{kind: opWrite9}) // parks on link 0
				for i := 0; i < 3*links; i++ {
					ops = append(ops, twinOp{kind: opRead})
				}
				ops = append(ops, twinOp{at: 100 * sim.Nanosecond, kind: opRelease, link: 0, flits: free})
				runTwin(t, links, buf, ops)
			})
		}
	}
}

// TestControllerDrainStrandsNoRequest runs bank-bound GUPS (nine ports
// confined to two banks, the back-pressure behind Figure 14) until
// hundreds of requests wait for link tokens, then stops the ports and
// drains. A lost wake-up would leave requests parked when Drain returns.
func TestControllerDrainStrandsNoRequest(t *testing.T) {
	r := newRig(t)
	mask, err := r.mapp.BanksMask(2)
	if err != nil {
		t.Fatal(err)
	}
	var ports []*TrafficPort
	for id := 0; id < 9; id++ {
		seed := 11 + uint64(id)*0x9E3779B9 + 1 // one stream per port from base seed 11
		ports = append(ports, NewTrafficPort(r.eng, DefaultConfig(), r.ctrl, r.mapp, id, gupsConfig(128, traffic.ReadOnly, mask, seed)))
	}
	stop := 20 * sim.Microsecond
	maxParked := 0
	var watch func()
	watch = func() {
		n := 0
		for _, q := range r.ctrl.blocked {
			n += len(q)
		}
		maxParked = max(maxParked, n)
		if r.eng.Now() < stop {
			r.eng.Schedule(100*sim.Nanosecond, watch)
		}
	}
	r.eng.Schedule(0, func() {
		for _, p := range ports {
			p.Start()
		}
		watch()
	})
	r.eng.Schedule(stop, func() {
		for _, p := range ports {
			p.Stop()
		}
	})
	r.eng.Drain()

	if maxParked < 100 {
		t.Fatalf("at most %d requests parked; the load never backed up", maxParked)
	}
	for l, q := range r.ctrl.blocked {
		if len(q) != 0 {
			t.Errorf("link %d: %d requests still parked", l, len(q))
		}
		if got, want := r.cube.ReqDir(l).TokensAvailable(), hmc.DefaultConfig().ReqRxBufFlits; got != want {
			t.Errorf("link %d: %d request tokens free after drain, want %d", l, got, want)
		}
	}
	if s, rcv := r.ctrl.RequestsSent(), r.ctrl.ResponsesReceived(); s != rcv {
		t.Errorf("%d requests sent, %d responses received", s, rcv)
	}
	for _, p := range ports {
		if o := p.Outstanding(); o != 0 {
			t.Errorf("port %d: %d requests outstanding after drain", p.ID(), o)
		}
	}
}

// newBacklog holds two 12-flit request links full with 448 requests
// parked behind them. Each call of the returned op frees one flit,
// which sends one parked request, hands the controller a fresh request,
// which parks, and runs the engine until the sent one is delivered, so
// the backlog holds steady. Delivered packets are reused as fresh
// requests.
func newBacklog() func() {
	eng := sim.NewEngine()
	dev := newFakeDev(eng, 2, 12)
	c := NewController(eng, DefaultConfig(), dev)
	var spare []*packet.Packet
	dev.onDeliver = func(_ int, p *packet.Packet) { spare = append(spare, p) }
	for i := 0; i < 2*12+448; i++ {
		c.sendReq((&packet.Transaction{Size: 64}).RequestPacket(0))
	}
	for eng.Step() {
	}
	l := 0
	return func() {
		dev.release(l, 1)
		l = 1 - l
		p := spare[len(spare)-1]
		spare = spare[:len(spare)-1]
		c.sendReq(p)
		for eng.Step() {
		}
	}
}

// BenchmarkControllerBlockedRelease measures one link-token release
// against a deep backlog of parked requests, the host's cost on
// bank-bound runs. It must report 0 allocs/op.
func BenchmarkControllerBlockedRelease(b *testing.B) {
	op := newBacklog()
	for i := 0; i < 64; i++ {
		op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestControllerBlockedReleaseDoesNotAllocate pins the benchmark's
// 0 allocs/op: parking, waking and re-dealing requests reuse the lists
// and waiter arrays once they have grown.
func TestControllerBlockedReleaseDoesNotAllocate(t *testing.T) {
	op := newBacklog()
	for i := 0; i < 64; i++ {
		op()
	}
	if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
		t.Errorf("blocked release: %.1f allocs/op, want 0", allocs)
	}
}
