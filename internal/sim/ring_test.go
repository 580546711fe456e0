package sim

import "testing"

func TestRingBasic(t *testing.T) {
	var r Ring[int]
	if !r.Empty() || r.Len() != 0 {
		t.Fatal("zero ring not empty")
	}
	for i := 0; i < 20; i++ {
		r.Push(i)
	}
	if r.Len() != 20 {
		t.Fatalf("Len = %d, want 20", r.Len())
	}
	for i := 0; i < 20; i++ {
		if got := r.At(i); got != i {
			t.Fatalf("At(%d) = %d", i, got)
		}
	}
	for i := 0; i < 20; i++ {
		if v, ok := r.Peek(); !ok || v != i {
			t.Fatalf("Peek = %d,%v want %d", v, ok, i)
		}
		if got := r.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
	}
	if _, ok := r.Peek(); ok {
		t.Fatal("Peek on empty ring succeeded")
	}
}

// TestRingWraparound drives the head all the way around the backing
// array several times, interleaving pushes and pops so every index
// operation crosses the wrap point.
func TestRingWraparound(t *testing.T) {
	var r Ring[int]
	next, expect := 0, 0
	for i := 0; i < 5; i++ {
		r.Push(next)
		next++
	}
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < r.Len(); i++ {
			if got := r.At(i); got != expect+i {
				t.Fatalf("round %d: At(%d) = %d, want %d", round, i, got, expect+i)
			}
		}
		for i := 0; i < 3; i++ {
			if got := r.Pop(); got != expect {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, expect)
			}
			expect++
		}
	}
	if r.Len() != 5 {
		t.Fatalf("Len = %d, want 5", r.Len())
	}
}

func TestRingRemoveAt(t *testing.T) {
	// Remove from both halves so both shift directions run, with the ring
	// deliberately wrapped.
	var r Ring[int]
	for i := 0; i < 12; i++ {
		r.Push(i)
	}
	for i := 0; i < 6; i++ {
		r.Pop() // head is now mid-array; further pushes wrap
	}
	for i := 12; i < 18; i++ {
		r.Push(i)
	}
	// Ring holds 6..17.
	if got := r.RemoveAt(1); got != 7 { // head-side shift
		t.Fatalf("RemoveAt(1) = %d, want 7", got)
	}
	if got := r.RemoveAt(9); got != 16 { // tail-side shift
		t.Fatalf("RemoveAt(9) = %d, want 16", got)
	}
	want := []int{6, 8, 9, 10, 11, 12, 13, 14, 15, 17}
	if r.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(want))
	}
	for i, w := range want {
		if got := r.At(i); got != w {
			t.Fatalf("After removes: At(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestRingPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func(r *Ring[int])
	}{
		{"pop-empty", func(r *Ring[int]) { r.Pop() }},
		{"at-range", func(r *Ring[int]) { r.Push(1); r.At(1) }},
		{"remove-range", func(r *Ring[int]) { r.RemoveAt(5) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn(new(Ring[int]))
		}()
	}
}

// sliceQueue is the pre-ring Queue implementation (slice shifting on
// every dequeue), kept as the reference model: the ring-backed Queue must
// return exactly the same values, in the same order, for any operation
// sequence.
type sliceQueue struct {
	items    []int
	capacity int
}

func (q *sliceQueue) full() bool { return q.capacity > 0 && len(q.items) >= q.capacity }

func (q *sliceQueue) push(v int) bool {
	if q.full() {
		return false
	}
	q.items = append(q.items, v)
	return true
}

func (q *sliceQueue) pop() (int, bool) {
	if len(q.items) == 0 {
		return 0, false
	}
	v := q.items[0]
	copy(q.items, q.items[1:])
	q.items = q.items[:len(q.items)-1]
	return v, true
}

func (q *sliceQueue) removeAt(i int) int {
	v := q.items[i]
	copy(q.items[i:], q.items[i+1:])
	q.items = q.items[:len(q.items)-1]
	return v
}

// TestQueueMatchesSliceReference drives the ring-backed Queue and the
// slice-based reference through a long pseudo-random interleaving of
// Push/Pop/RemoveAt — spanning many wrap points — and demands identical
// results and element order at every step.
func TestQueueMatchesSliceReference(t *testing.T) {
	for _, capacity := range []int{0, 7} {
		q := NewQueue[int](capacity)
		ref := &sliceQueue{capacity: capacity}
		rng := NewRand(42)
		for step := 0; step < 5000; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // push
				v := int(rng.Uint64() % 1000)
				got, want := q.Push(v), ref.push(v)
				if got != want {
					t.Fatalf("step %d: Push accepted=%v, reference %v", step, got, want)
				}
			case op < 8: // pop
				gv, gok := q.Pop()
				wv, wok := ref.pop()
				if gv != wv || gok != wok {
					t.Fatalf("step %d: Pop = %d,%v, reference %d,%v", step, gv, gok, wv, wok)
				}
			default: // remove at a random index
				if q.Len() == 0 {
					continue
				}
				i := rng.Intn(q.Len())
				gv, wv := q.RemoveAt(i), ref.removeAt(i)
				if gv != wv {
					t.Fatalf("step %d: RemoveAt(%d) = %d, reference %d", step, i, gv, wv)
				}
			}
			if q.Len() != len(ref.items) {
				t.Fatalf("step %d: Len = %d, reference %d", step, q.Len(), len(ref.items))
			}
			for i, w := range ref.items {
				if got := q.At(i); got != w {
					t.Fatalf("step %d: At(%d) = %d, reference %d", step, i, got, w)
				}
			}
		}
	}
}
