package sim

import "testing"

// twin drives one engine with a seeded random schedule. The schedule
// grows from the events themselves: each firing logs its ID and draws
// its children (line items, plain At/Schedule events, channel-keyed
// AtKey events) from a generator seeded by that ID, so two twins that
// fire the same events in the same order build the same schedule. The
// reference twin has no lines and sends line items through Engine.At.
type twin struct {
	eng    *Engine
	lines  []*Line // nil on the reference twin
	tails  []Time  // per-line latest item time, kept on both twins
	chans  []uint64
	cseq   []uint64
	seed   uint64
	ids    int // next event ID
	budget int // events to schedule in all
	log    []int
}

const (
	twinLines = 4
	twinChans = 2
)

func newTwin(seed uint64, budget int, withLines bool) *twin {
	d := &twin{eng: NewEngine(), tails: make([]Time, twinLines), cseq: make([]uint64, twinChans), seed: seed, budget: budget}
	if withLines {
		for i := 0; i < twinLines; i++ {
			d.lines = append(d.lines, d.eng.NewLine())
		}
	}
	for i := 0; i < twinChans; i++ {
		d.chans = append(d.chans, d.eng.AllocChanID())
	}
	return d
}

func (d *twin) event() func() {
	id := d.ids
	d.ids++
	return func() { d.fire(id) }
}

// spawn schedules one child event, drawing its kind and time from r.
// Delays are small, so same-instant ties are common.
func (d *twin) spawn(r *Rand) {
	now := d.eng.Now()
	delay := Time(r.Intn(4)) * 10
	switch k := r.Intn(6); {
	case k < 3: // a line item
		i := r.Intn(twinLines)
		t := now + delay
		if t < d.tails[i] {
			t = d.tails[i] + delay/2
		}
		d.tails[i] = t
		viaAfter := r.Intn(2) == 0
		switch {
		case d.lines == nil:
			d.eng.At(t, d.event())
		case viaAfter:
			d.lines[i].After(t-now, d.event())
		default:
			d.lines[i].At(t, d.event())
		}
	case k == 3:
		d.eng.At(now+delay, d.event())
	case k == 4:
		d.eng.Schedule(delay, d.event())
	default:
		c := r.Intn(twinChans)
		d.cseq[c]++
		d.eng.AtKey(now+delay, ChanKey(d.chans[c], d.cseq[c]), d.event())
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

// sameTwins fails the test unless the twins agree on everything observable.
func sameTwins(t *testing.T, where string, a, b *twin) {
	t.Helper()
	if a.eng.Now() != b.eng.Now() || a.eng.Fired() != b.eng.Fired() || a.eng.Pending() != b.eng.Pending() {
		t.Fatalf("%s: lines at now=%v fired=%d pending=%d, reference at now=%v fired=%d pending=%d",
			where, a.eng.Now(), a.eng.Fired(), a.eng.Pending(), b.eng.Now(), b.eng.Fired(), b.eng.Pending())
	}
	if len(a.log) != len(b.log) {
		t.Fatalf("%s: lines fired %d events, reference %d", where, len(a.log), len(b.log))
	}
	for i := range a.log {
		if a.log[i] != b.log[i] {
			t.Fatalf("%s: firing %d was event %d with lines, %d in the reference", where, i, a.log[i], b.log[i])
		}
	}
}

// TestLineMatchesEngineOrder is the order-equivalence contract of Line:
// an engine whose FIFO chains run on lines fires the same events at the
// same times in the same order as one that schedules everything with
// At, and reports the same Fired and Pending counts throughout.
func TestLineMatchesEngineOrder(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		a, b := newTwin(seed, 3000, true), newTwin(seed, 3000, false)
		a.start(8)
		b.start(8)
		sameTwins(t, "after start", a, b)
		maxLined := 0
		for steps := 0; ; steps++ {
			if a.eng.lined > maxLined {
				maxLined = a.eng.lined
			}
			ra, rb := a.eng.Step(), b.eng.Step()
			if ra != rb {
				t.Fatalf("seed %d step %d: Step reported %v with lines, %v in the reference", seed, steps, ra, rb)
			}
			if !ra {
				break
			}
			sameTwins(t, "step", a, b)
		}
		if a.ids < 100 || maxLined < 2 {
			t.Fatalf("seed %d: %d events scheduled, at most %d behind line heads; the schedule is too thin to test",
				seed, a.ids, maxLined)
		}
	}
}

// TestLineRunUntilMatchesEngine stops Run at arbitrary times, which
// often fall between two items of one line; the items behind the stop
// must stay pending on both engines.
func TestLineRunUntilMatchesEngine(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		a, b := newTwin(seed, 3000, true), newTwin(seed, 3000, false)
		a.start(8)
		b.start(8)
		r := NewRand(seed)
		for until := Time(0); a.eng.Pending() > 0 || b.eng.Pending() > 0; until += Time(r.Intn(60)) {
			ea, eb := a.eng.Run(until), b.eng.Run(until)
			if ea != eb {
				t.Fatalf("seed %d: Run(%v) returned %v with lines, %v in the reference", seed, until, ea, eb)
			}
			sameTwins(t, "run", a, b)
		}
	}

	// The plain case: a stop between two items of one line.
	eng := NewEngine()
	l := eng.NewLine()
	fired := 0
	for _, at := range []Time{10, 20, 30} {
		l.At(at, func() { fired++ })
	}
	eng.Run(15)
	if fired != 1 || eng.Pending() != 2 || l.q.Len() != 2 {
		t.Fatalf("Run(15) over items at 10, 20, 30: fired %d, pending %d, line length %d; want 1, 2, 2",
			fired, eng.Pending(), l.q.Len())
	}
}

// TestLineCheckpointDrainMatchesEngine interrupts Drain at a checkpoint
// again and again; each stop must leave both engines in the same state.
func TestLineCheckpointDrainMatchesEngine(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		a, b := newTwin(seed, 3000, true), newTwin(seed, 3000, false)
		a.start(8)
		b.start(8)
		stop := func() bool { return false }
		a.eng.SetCheckpoint(37, stop)
		b.eng.SetCheckpoint(37, stop)
		for rounds := 0; a.eng.Pending() > 0 || b.eng.Pending() > 0; rounds++ {
			a.eng.Drain()
			b.eng.Drain()
			if a.eng.Interrupted() != b.eng.Interrupted() {
				t.Fatalf("seed %d round %d: interrupted %v with lines, %v in the reference",
					seed, rounds, a.eng.Interrupted(), b.eng.Interrupted())
			}
			sameTwins(t, "checkpoint", a, b)
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

func TestLineAtBeforeTailPanics(t *testing.T) {
	eng := NewEngine()
	l := eng.NewLine()
	l.At(20, func() {})
	mustPanic(t, "Line.At before the line's tail", func() { l.At(10, func() {}) })
	// Equal times are allowed: they fire in scheduling order.
	l.At(20, func() {})
	if l.q.Len() != 2 || eng.Pending() != 2 {
		t.Fatalf("line length %d, pending %d; want 2, 2", l.q.Len(), eng.Pending())
	}
}

func TestLineAtInPastPanics(t *testing.T) {
	eng := NewEngine()
	l := eng.NewLine()
	eng.Run(50)
	mustPanic(t, "Line.At in the past", func() { l.At(40, func() {}) })
}

func TestLineAfterNegativeDelayClamped(t *testing.T) {
	eng := NewEngine()
	l := eng.NewLine()
	eng.Run(10)
	var at Time = -1
	l.After(-5, func() { at = eng.Now() })
	eng.Drain()
	if at != 10 {
		t.Fatalf("clamped line item fired at %v, want 10ps", at)
	}
}

// TestLineCallbackReschedulesOnOwnLine guards the order of fireHead:
// the next item is promoted before the callback runs, so a callback
// that schedules on its own line appends behind it, whether the line
// was left empty or not, and nothing is scheduled twice.
func TestLineCallbackReschedulesOnOwnLine(t *testing.T) {
	eng := NewEngine()
	l := eng.NewLine()
	var order []string
	mark := func(s string) func() { return func() { order = append(order, s) } }
	l.At(10, func() {
		order = append(order, "a")
		// The line is empty now: b becomes its head, c waits behind b.
		l.At(10, func() {
			order = append(order, "b")
			l.At(30, mark("x"))
		})
		l.At(20, func() {
			order = append(order, "c")
			// x was promoted before this callback: e waits behind x.
			l.At(40, mark("e"))
		})
	})

	want := []string{"a", "b", "c", "x", "e"}
	pending := []int{2, 2, 2, 1, 0}
	for i := range want {
		if !eng.Step() {
			t.Fatalf("engine ran dry after %v, want %v", order, want)
		}
		if order[len(order)-1] != want[i] || len(order) != i+1 {
			t.Fatalf("fired %v, want %v", order, want[:i+1])
		}
		if eng.Pending() != pending[i] || l.q.Len() != pending[i] {
			t.Fatalf("after %q: pending %d, line length %d; want %d", want[i], eng.Pending(), l.q.Len(), pending[i])
		}
	}
	if eng.Step() || eng.Fired() != 5 {
		t.Fatalf("fired %d events, want exactly 5", eng.Fired())
	}
}

// TestLineSteadyStateDoesNotAllocate pins the lines' share of the
// kernel's 0 allocs/op contract: once a line's ring has reached its
// high-water mark, scheduling and firing items allocates nothing, on a
// bare line and through Server.Reserve.
func TestLineSteadyStateDoesNotAllocate(t *testing.T) {
	eng := NewEngine()
	l := eng.NewLine()
	var step func()
	step = func() { l.After(100, step) }
	for i := 0; i < 16; i++ {
		l.After(Time(i), step)
	}
	srv := NewServer(eng)
	var served func()
	served = func() { srv.Reserve(7, served) }
	for i := 0; i < 16; i++ {
		srv.Reserve(7, served)
	}
	eng.Run(10_000) // rings at their high-water marks
	allocs := testing.AllocsPerRun(100, func() {
		eng.Run(eng.Now() + 1000)
	})
	if allocs != 0 {
		t.Errorf("line steady state: %.1f allocs/op, want 0", allocs)
	}
}
