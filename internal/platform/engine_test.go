package platform

import (
	"cmp"
	"slices"
	"testing"

	"rtopex/internal/stats"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("final time %v", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var trace []float64
	e.At(10, func() {
		trace = append(trace, e.Now())
		e.After(5, func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
		t.Fatalf("trace %v", trace)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := New()
	e.At(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for past event")
		}
	}()
	e.At(5, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative delay")
		}
	}()
	e.After(-1, func() {})
}

func TestRunUntil(t *testing.T) {
	e := New()
	fired := map[float64]bool{}
	for _, at := range []float64{10, 20, 30} {
		at := at
		e.At(at, func() { fired[at] = true })
	}
	e.RunUntil(20)
	if !fired[10] || !fired[20] || fired[30] {
		t.Fatalf("fired %v", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("now %v", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending %d", e.Pending())
	}
	e.RunUntil(100)
	if !fired[30] || e.Now() != 100 {
		t.Fatal("RunUntil did not advance")
	}
}

func TestStepAndPending(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	e.At(1, func() {})
	if e.Pending() != 1 {
		t.Fatal("pending wrong")
	}
	if !e.Step() || e.Pending() != 0 {
		t.Fatal("step accounting wrong")
	}
}

func TestDeterminismUnderRandomInsertion(t *testing.T) {
	run := func(seed uint64) []float64 {
		r := stats.NewRNG(seed)
		e := New()
		var log []float64
		var insert func(depth int)
		insert = func(depth int) {
			if depth > 3 {
				return
			}
			n := 1 + r.Intn(3)
			for i := 0; i < n; i++ {
				d := r.Float64() * 100
				e.After(d, func() {
					log = append(log, e.Now())
					insert(depth + 1)
				})
			}
		}
		insert(0)
		e.Run()
		return log
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("runs diverged")
		}
	}
	// Log must be nondecreasing (causality).
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("time went backwards")
		}
	}
}

// TestLaneHeapMergeOrder mixes events that land in the sorted lane
// (scheduled at or after its tail) with events that land in the heap
// (earlier than the tail), on a coarse time grid so equal times tie across
// the two structures, and lets the lane drain and refill during the run.
// Events must run in (at, seq) order, seq being the order of At calls.
func TestLaneHeapMergeOrder(t *testing.T) {
	type key struct {
		at  float64
		seq int
	}
	for seed := uint64(1); seed <= 20; seed++ {
		r := stats.NewRNG(seed)
		e := New()
		var scheduled, ran []key
		var toLane, toHeap, laneDrained int
		// schedule adds one logged event d µs from now, through After or At.
		var schedule func(d float64)
		schedule = func(d float64) {
			k := key{e.Now() + d, len(scheduled)}
			scheduled = append(scheduled, k)
			fire := func() {
				ran = append(ran, k)
				if e.head == len(e.lane) {
					laneDrained++
				}
				if len(scheduled) >= 2000 {
					return
				}
				// Children: a near one (lane-bound while the lane's tail is
				// near), a far one (heap-bound when it falls before the
				// tail), and sometimes an exact tie with now.
				if r.Intn(3) > 0 {
					schedule(float64(r.Intn(4)))
				}
				if r.Intn(2) == 0 {
					schedule(float64(r.Intn(40)))
				}
				if r.Intn(4) == 0 {
					schedule(0)
				}
			}
			heapBefore := len(e.heap)
			if r.Intn(2) == 0 {
				e.After(d, fire)
			} else {
				e.At(k.at, fire)
			}
			if len(e.heap) > heapBefore {
				toHeap++
			} else {
				toLane++
			}
		}
		// A monotone initial batch (all lane) plus stragglers (heap once
		// the batch's tail is ahead of them).
		for i := 0; i < 50; i++ {
			schedule(float64(2 * i))
		}
		for i := 0; i < 30; i++ {
			schedule(float64(r.Intn(100)))
		}
		e.Run()
		if toLane == 0 || toHeap == 0 || laneDrained == 0 {
			t.Fatalf("seed %d: %d lane, %d heap inserts, lane drained %d times; the test does not exercise the merge",
				seed, toLane, toHeap, laneDrained)
		}
		want := slices.Clone(scheduled)
		slices.SortFunc(want, func(a, b key) int {
			if c := cmp.Compare(a.at, b.at); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
		if !slices.Equal(ran, want) {
			t.Fatalf("seed %d: execution order differs from (at, seq) order", seed)
		}
	}
}

// TestRunUntilAndPendingCountTheLane checks RunUntil's horizon and
// Pending's count when events wait in the lane, the heap, or both.
func TestRunUntilAndPendingCountTheLane(t *testing.T) {
	e := New()
	var fired []float64
	log := func() { fired = append(fired, e.Now()) }
	for _, at := range []float64{10, 20, 30, 40} {
		e.At(at, log) // nondecreasing: all lane
	}
	e.At(15, log) // before the lane's tail: heap
	e.At(25, log)
	if len(e.lane) != 4 || len(e.heap) != 2 {
		t.Fatalf("lane %d, heap %d; want 4 and 2", len(e.lane), len(e.heap))
	}
	if e.Pending() != 6 {
		t.Fatalf("pending %d, want 6", e.Pending())
	}
	e.RunUntil(20)
	if !slices.Equal(fired, []float64{10, 15, 20}) || e.Now() != 20 || e.Pending() != 3 {
		t.Fatalf("after RunUntil(20): fired %v, now %v, pending %d", fired, e.Now(), e.Pending())
	}
	e.RunUntil(35)
	if !slices.Equal(fired, []float64{10, 15, 20, 25, 30}) || e.Pending() != 1 || len(e.heap) != 0 {
		t.Fatalf("after RunUntil(35): fired %v, pending %d, heap %d", fired, e.Pending(), len(e.heap))
	}
	// Only the lane holds an event now; RunUntil short of it runs nothing.
	e.RunUntil(39)
	if len(fired) != 5 || e.Now() != 39 || e.Pending() != 1 {
		t.Fatalf("after RunUntil(39): fired %v, now %v, pending %d", fired, e.Now(), e.Pending())
	}
	e.RunUntil(100)
	if len(fired) != 6 || e.Pending() != 0 || e.Now() != 100 {
		t.Fatalf("after RunUntil(100): fired %v, now %v, pending %d", fired, e.Now(), e.Pending())
	}
}

// TestWarmEngineDoesNotAllocate: once its storage has grown, scheduling
// and running an event with a non-capturing func allocates nothing, on
// either the lane or the heap path.
func TestWarmEngineDoesNotAllocate(t *testing.T) {
	e := New()
	noop := func() {}
	for i := 0; i < 64; i++ {
		e.At(float64(i), noop)
	}
	e.Run()
	if n := testing.AllocsPerRun(1000, func() {
		e.At(e.Now()+1, noop)
		e.Step()
	}); n != 0 {
		t.Fatalf("lane path: %v allocs per At+Step, want 0", n)
	}
	// A far event keeps the lane's tail ahead, so new events go to the heap.
	e.At(1e12, noop)
	for i := 0; i < 64; i++ {
		e.At(e.Now()+float64(i), noop)
	}
	for len(e.heap) > 0 {
		e.Step()
	}
	if n := testing.AllocsPerRun(1000, func() {
		e.At(e.Now()+1, noop)
		e.Step()
	}); n != 0 || len(e.heap) != 0 {
		t.Fatalf("heap path: %v allocs per At+Step (heap left %d), want 0", n, len(e.heap))
	}
	// A lane that never drains (one event always waits behind the one
	// popped) still reuses its storage instead of growing with the run.
	e = New()
	e.At(0, noop)
	for i := 0; i < 10000; i++ {
		e.At(e.lane[len(e.lane)-1].at+1, noop)
		e.Step()
	}
	if e.Pending() != 1 || len(e.heap) != 0 || cap(e.lane) > 16 {
		t.Fatalf("never-drained lane: pending %d, heap %d, lane capacity %d after 10000 events",
			e.Pending(), len(e.heap), cap(e.lane))
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	e := New()
	var fn func()
	n := 0
	fn = func() {
		n++
		if n < b.N {
			e.After(1, fn)
		}
	}
	e.After(1, fn)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
