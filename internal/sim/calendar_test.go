package sim

import (
	"sort"
	"testing"
)

// horizon is how far the calendar reaches beyond the start of now's
// bucket; later events wait in the far heap.
const horizon = Time(calBuckets) << calShift

// refQueue is the reference the calendar is held to: one slice kept
// sorted by (at, key), with its own clock, sequence counter and
// checkpoint countdown. It shares no queue code with Engine.
type refQueue struct {
	evs         []refEvent
	now         Time
	seq         uint64
	fired       uint64
	chans       uint64
	ckEvery     uint64
	ckLeft      uint64
	ckFn        func() bool
	interrupted bool
}

type refEvent struct {
	at  Time
	key uint64
	fn  func()
}

func (q *refQueue) Now() Time            { return q.now }
func (q *refQueue) Fired() uint64        { return q.fired }
func (q *refQueue) Pending() int         { return len(q.evs) }
func (q *refQueue) Interrupted() bool    { return q.interrupted }
func (q *refQueue) Key() uint64          { q.seq++; return q.seq }
func (q *refQueue) At(t Time, fn func()) { q.AtKey(t, q.Key(), fn) }

func (q *refQueue) AllocChanID() uint64 {
	q.chans++
	return q.chans - 1
}

func (q *refQueue) Schedule(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	q.At(q.now+d, fn)
}

func (q *refQueue) AtKey(t Time, key uint64, fn func()) {
	if t < q.now {
		panic("reference: event in the past")
	}
	i := sort.Search(len(q.evs), func(i int) bool {
		e := q.evs[i]
		return e.at > t || (e.at == t && e.key > key)
	})
	q.evs = append(q.evs, refEvent{})
	copy(q.evs[i+1:], q.evs[i:])
	q.evs[i] = refEvent{at: t, key: key, fn: fn}
}

func (q *refQueue) Step() bool {
	if len(q.evs) == 0 {
		return false
	}
	ev := q.evs[0]
	q.evs = q.evs[1:]
	q.now = ev.at
	q.fired++
	ev.fn()
	return true
}

func (q *refQueue) SetCheckpoint(every uint64, fn func() bool) {
	q.ckEvery, q.ckLeft, q.ckFn = every, every, fn
}

// stop counts down to the next checkpoint and reports whether it asked
// the loop to stop.
func (q *refQueue) stop() bool {
	if q.ckEvery == 0 {
		return false
	}
	if q.ckLeft--; q.ckLeft > 0 {
		return false
	}
	q.ckLeft = q.ckEvery
	q.interrupted = !q.ckFn()
	return q.interrupted
}

func (q *refQueue) Run(until Time) Time {
	q.interrupted = false
	for len(q.evs) > 0 && q.evs[0].at <= until {
		q.Step()
		if q.stop() {
			return q.now
		}
	}
	if q.now < until {
		q.now = until
	}
	return q.now
}

func (q *refQueue) Drain() {
	q.interrupted = false
	for q.Step() {
		if q.stop() {
			return
		}
	}
}

// scheduler is what a twin drives: an Engine or the reference.
type scheduler interface {
	Now() Time
	Fired() uint64
	Pending() int
	Interrupted() bool
	AllocChanID() uint64
	Key() uint64
	At(t Time, fn func())
	AtKey(t Time, key uint64, fn func())
	Schedule(d Time, fn func())
	Step() bool
	Run(until Time) Time
	Drain()
	SetCheckpoint(every uint64, fn func() bool)
}

// twin drives one scheduler with a seeded random schedule. The schedule
// grows from the events themselves: each firing logs its ID and draws
// its children (At, Schedule and channel-keyed AtKey events, and jobs
// booked on a server) from a generator seeded by that ID, so two twins
// that fire the same events in the same order build the same schedule.
//
// The server's jobs finish in booking order, each at the later of its
// booking and the previous job's end plus its duration, and each job's
// completion is an event. A held twin books them as the host
// controller does: it takes each completion's key with Key at booking,
// keeps the jobs in a FIFO and queues only the oldest's completion,
// with AtKey, queueing the next one's when it fires. Other twins queue
// every completion with At at booking.
type twin struct {
	q      scheduler
	chans  []uint64
	cseq   []uint64
	seed   uint64
	ids    int // next event ID
	budget int // events to schedule in all
	log    []int

	held bool
	free Time      // when the server is next free
	jobs []heldJob // held twin: booked jobs, oldest first
	far  int       // held twin: bookings that ended beyond the horizon
	peak int       // held twin: most jobs held at once
}

// heldJob is a job on a held twin's server: its completion's time, key
// and event.
type heldJob struct {
	end Time
	key uint64
	fn  func()
}

const twinChans = 2

func newTwin(q scheduler, seed uint64, budget int, held bool) *twin {
	d := &twin{q: q, cseq: make([]uint64, twinChans), seed: seed, budget: budget, held: held}
	for i := 0; i < twinChans; i++ {
		d.chans = append(d.chans, q.AllocChanID())
	}
	return d
}

// book puts a job of duration dur on the twin's server.
func (d *twin) book(dur Time) {
	end := max(d.q.Now(), d.free) + dur
	d.free = end
	fn := d.event()
	if !d.held {
		d.q.At(end, fn)
		return
	}
	if end-d.q.Now() > horizon {
		d.far++
	}
	d.jobs = append(d.jobs, heldJob{end: end, key: d.q.Key(), fn: fn})
	d.peak = max(d.peak, len(d.jobs))
	if len(d.jobs) == 1 {
		d.q.AtKey(end, d.jobs[0].key, d.complete)
	}
}

// complete is a held twin's server completion: it queues the next job's
// completion under the key booked for it, then runs the finished job's
// event.
func (d *twin) complete() {
	j := d.jobs[0]
	d.jobs = d.jobs[1:]
	if len(d.jobs) > 0 {
		d.q.AtKey(d.jobs[0].end, d.jobs[0].key, d.complete)
	}
	j.fn()
}

// unqueued is the number of events the twin holds outside its
// scheduler: every held job's completion but the oldest's.
func (d *twin) unqueued() int { return max(len(d.jobs)-1, 0) }

func (d *twin) event() func() {
	id := d.ids
	d.ids++
	return func() { d.fire(id) }
}

// spawn schedules one child event, drawing its kind and time from r.
// Half the delays are a few ps, so same-instant ties and inserts into a
// bucket's middle are common; the rest are uniform over three horizons,
// so events also land in later buckets and beyond the horizon, and the
// ring wraps many times over a run. A job booked on the server lasts a
// few ps or up to a sixteenth of a horizon, so completions tie with
// each other and with other events, and a backlog of jobs reaches past
// the horizon.
func (d *twin) spawn(r *Rand) {
	now := d.q.Now()
	delay := Time(r.Intn(4)) * 10
	if r.Intn(2) == 0 {
		delay = Time(r.Intn(int(3*horizon) + 1))
	}
	switch k := r.Intn(5); k {
	case 0, 1:
		d.q.At(now+delay, d.event())
	case 2:
		d.q.Schedule(delay, d.event())
	case 3:
		dur := Time(r.Intn(4)) * 10
		if r.Intn(2) == 0 {
			dur = Time(r.Intn(int(horizon / 16)))
		}
		d.book(dur)
	default:
		c := r.Intn(twinChans)
		d.cseq[c]++
		d.q.AtKey(now+delay, ChanKey(d.chans[c], d.cseq[c]), d.event())
	}
}

func (d *twin) fire(id int) {
	d.log = append(d.log, id)
	r := NewRand(d.seed*1_000_003 + uint64(id))
	for n := r.Intn(4); n > 0 && d.ids < d.budget; n-- {
		d.spawn(r)
	}
}

// start schedules the roots at time zero.
func (d *twin) start(roots int) {
	r := NewRand(d.seed)
	for i := 0; i < roots; i++ {
		d.spawn(r)
	}
}

// pair is an engine twin and a reference twin on the same schedule.
type pair struct {
	eng     *Engine
	cal     *twin // on eng
	ref     *twin
	checked int // log entries already compared
}

func newPair(seed uint64, budget int) *pair {
	eng := NewEngine()
	p := &pair{eng: eng, cal: newTwin(eng, seed, budget, true), ref: newTwin(&refQueue{}, seed, budget, false)}
	p.cal.start(8)
	p.ref.start(8)
	return p
}

// same fails the test unless the twins agree on everything observable.
// The engine twin's pending events, with the completions it holds,
// must be the reference's.
func (p *pair) same(t *testing.T, where string) {
	t.Helper()
	a, b := p.cal, p.ref
	if a.q.Now() != b.q.Now() || a.q.Fired() != b.q.Fired() || a.q.Pending()+a.unqueued() != b.q.Pending() {
		t.Fatalf("%s: engine at now=%v fired=%d pending=%d+%d held, reference at now=%v fired=%d pending=%d",
			where, a.q.Now(), a.q.Fired(), a.q.Pending(), a.unqueued(), b.q.Now(), b.q.Fired(), b.q.Pending())
	}
	if len(a.log) != len(b.log) {
		t.Fatalf("%s: engine fired %d events, reference %d", where, len(a.log), len(b.log))
	}
	for i := p.checked; i < len(a.log); i++ {
		if a.log[i] != b.log[i] {
			t.Fatalf("%s: firing %d was event %d on the engine, %d in the reference", where, i, a.log[i], b.log[i])
		}
	}
	p.checked = len(a.log)
}

// TestCalendarMatchesReference is the calendar's order contract: it
// fires the same events at the same times in the same order as a list
// sorted by (time, key), and reports the same Now, Fired and Pending
// after every step. The engine twin's held server completions, queued
// one at a time under keys taken at booking, fire where the
// reference's eager ones do.
func TestCalendarMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		p := newPair(seed, 3000)
		p.same(t, "after start")
		maxFar := 0
		for steps := 0; ; steps++ {
			if len(p.eng.far) > maxFar {
				maxFar = len(p.eng.far)
			}
			ra, rb := p.cal.q.Step(), p.ref.q.Step()
			if ra != rb {
				t.Fatalf("seed %d step %d: Step reported %v on the engine, %v in the reference", seed, steps, ra, rb)
			}
			if !ra {
				break
			}
			p.same(t, "step")
		}
		if p.cal.ids < 1000 || maxFar < 2 || p.eng.Now() < 5*horizon || p.cal.far == 0 || p.cal.peak < 3 {
			t.Fatalf("seed %d: %d events scheduled, at most %d beyond the horizon, %v simulated, %d server jobs booked beyond it, at most %d held; the schedule is too thin to test",
				seed, p.cal.ids, maxFar, p.eng.Now(), p.cal.far, p.cal.peak)
		}
	}
}

// TestCalendarRunUntilMatchesReference stops Run at arbitrary times,
// some after empty stretches longer than the horizon, and schedules
// more work from outside the events after each stop.
func TestCalendarRunUntilMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		p := newPair(seed, 3000)
		// A lone late root leaves an empty stretch behind the schedule.
		late := 40 * horizon
		p.cal.q.At(late, p.cal.event())
		p.ref.q.At(late, p.ref.event())
		r := NewRand(seed)
		leaps := 0
		for until := Time(0); p.cal.q.Pending() > 0 || p.ref.q.Pending() > 0; {
			step := Time(r.Intn(2 << calShift))
			if r.Intn(8) == 0 {
				step = Time(r.Intn(int(2 * horizon)))
			}
			until += step
			from, fired := p.eng.Now(), p.eng.Fired()
			ea, eb := p.cal.q.Run(until), p.ref.q.Run(until)
			if ea != eb {
				t.Fatalf("seed %d: Run(%v) returned %v on the engine, %v in the reference", seed, until, ea, eb)
			}
			p.same(t, "run")
			if p.eng.Fired() == fired && p.eng.Pending() > 0 && p.eng.Now()-from > horizon {
				leaps++
			}
			if r.Intn(4) == 0 {
				sub := r.Uint64()
				p.cal.spawn(NewRand(sub))
				p.ref.spawn(NewRand(sub))
			}
		}
		if leaps == 0 {
			t.Fatalf("seed %d: no Run crossed an empty stretch longer than the horizon", seed)
		}
	}

	// The plain case: Run leaps three horizons past an empty stretch;
	// then a near event joins the calendar and later ones the far heap.
	eng := NewEngine()
	var got []Time
	mark := func() { got = append(got, eng.Now()) }
	eng.At(5*horizon, mark)
	if now := eng.Run(3*horizon + 7); now != 3*horizon+7 || eng.Fired() != 0 {
		t.Fatalf("Run(3 horizons + 7ps) over one event at 5 horizons: now %v, fired %d", now, eng.Fired())
	}
	eng.At(5*horizon+4, mark)
	eng.Schedule(10, mark)
	eng.At(5*horizon-1, mark)
	eng.Drain()
	want := []Time{3*horizon + 17, 5*horizon - 1, 5 * horizon, 5*horizon + 4}
	if len(got) != len(want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired at %v, want %v", got, want)
		}
	}
}

// TestCalendarCheckpointDrainMatchesReference interrupts Drain at a
// checkpoint again and again; each stop must leave the engine and the
// reference in the same state.
func TestCalendarCheckpointDrainMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		p := newPair(seed, 3000)
		stop := func() bool { return false }
		p.cal.q.SetCheckpoint(37, stop)
		p.ref.q.SetCheckpoint(37, stop)
		for rounds := 0; p.cal.q.Pending() > 0 || p.ref.q.Pending() > 0; rounds++ {
			p.cal.q.Drain()
			p.ref.q.Drain()
			if p.cal.q.Interrupted() != p.ref.q.Interrupted() {
				t.Fatalf("seed %d round %d: interrupted %v on the engine, %v in the reference",
					seed, rounds, p.cal.q.Interrupted(), p.ref.q.Interrupted())
			}
			p.same(t, "checkpoint")
		}
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestEngineAtKeyInPastPanics checks both past-time panics after Run
// moved the clock past an empty stretch, where the calendar's ring
// has turned without firing anything.
func TestEngineAtKeyInPastPanics(t *testing.T) {
	eng := NewEngine()
	eng.Run(2*horizon + 50)
	mustPanic(t, "At in the past", func() { eng.At(2*horizon+40, func() {}) })
	mustPanic(t, "AtKey in the past", func() { eng.AtKey(40, ChanKey(eng.AllocChanID(), 1), func() {}) })
	if eng.Pending() != 0 {
		t.Fatalf("%d events pending after rejected schedules, want 0", eng.Pending())
	}
}

// modelDelays is the model's mix of scheduling delays, each with its
// share of 1,000 pushes: the 15 most frequent delays of one open-loop
// traffic run (the benchmark's traffic-rw rep at seed 0, 30 us of
// warm-up and a 120 us window), which make 94.5 % of its 912,632
// pushes, weighted by their counts, and one delay beyond the horizon.
// By how far ahead they land, that run's pushes are 2.4 % under 1 ns,
// 36.0 % at 1-4 ns, 47.5 % at 4-16 ns, 6.9 % at 16-64 ns, 7.1 % at
// 64-524 ns and 64 beyond the horizon; the table's shares are 2.5,
// 37.3, 45.8, 7.0, 7.3 and 0.1 %.
var modelDelays = []struct {
	d Time
	n int // pushes in 1,000
}{
	{400, 25},              // NoC router: one flit
	{1001, 37},             // host packet engine
	{1067, 24},             // link serializer: one flit
	{1600, 37},             // NoC router hop
	{2000, 185},            // NoC bridge: a flit and a hop, delivery or credit return
	{3600, 53},             // NoC bridge: a five-flit message and a hop
	{3669, 37},             // host packet engine
	{4 * Nanosecond, 37},   // vault controller
	{5333, 293},            // FPGA clock cycle: port ticks
	{5335, 24},             // link serializer: five flits
	{9600, 31},             // vault TSV transfer
	{12 * Nanosecond, 73},  // link wire
	{33900, 35},            // DRAM access: activation, column read, two bursts
	{35350, 35},            // DRAM bank ready: tRAS and tRP
	{300 * Nanosecond, 73}, // host Tx/Rx stage
	{2 * Microsecond, 1},   // a saturated server's booking, beyond the horizon
}

// modelDelayDraws lists each delay of modelDelays once per push of its
// share, so a uniform draw from the list follows the model's mix.
func modelDelayDraws() []Time {
	var draws []Time
	for _, m := range modelDelays {
		for i := 0; i < m.n; i++ {
			draws = append(draws, m.d)
		}
	}
	return draws
}

// TestCalendarSteadyStateDoesNotAllocate pins the queue's share of the
// kernel's 0 allocs/op contract: once the node pool and the far heap
// have reached their high-water marks, scheduling and firing allocates
// nothing, across the horizon, around the ring and through
// Server.Reserve.
func TestCalendarSteadyStateDoesNotAllocate(t *testing.T) {
	eng := NewEngine()
	nop := func() {}
	for i, m := range modelDelays {
		d := m.d
		var tick func()
		tick = func() {
			eng.Schedule(0, nop) // a same-instant wake-up
			eng.Schedule(d, tick)
		}
		for k := 0; k < 8; k++ {
			eng.At(Time(i*8+k), tick)
		}
	}
	srv := NewServer(eng)
	var served func()
	served = func() { srv.Reserve(400, served) }
	for i := 0; i < 16; i++ {
		srv.Reserve(400, served)
	}
	eng.Run(20 * Microsecond) // pool and far heap at their high-water marks
	allocs := testing.AllocsPerRun(100, func() {
		eng.Run(eng.Now() + 4*horizon) // crosses the horizon and wraps the ring
	})
	if allocs != 0 {
		t.Errorf("calendar steady state: %.1f allocs/op, want 0", allocs)
	}
	if len(eng.far) == 0 {
		t.Error("no event waits beyond the horizon; the test no longer reaches the far heap")
	}
}
