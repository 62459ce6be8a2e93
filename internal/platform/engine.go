// Package platform provides the deterministic discrete-event engine the
// C-RAN scheduler simulations run on. Time is a float64 microsecond clock;
// events fire in (time, scheduling order) order — nondecreasing time with
// FIFO tie-breaking — so a run is exactly reproducible from its inputs.
//
// Pending events live in two structures. A sorted lane is a FIFO that takes
// every event whose time is at or after its tail, so a caller scheduling in
// nondecreasing time order (a trace's arrivals) pays one append and one pop
// per event. Any earlier event goes to a typed 4-ary heap, which then holds
// only the few events in flight. Each At takes the next sequence number, so
// both structures stay sorted by (at, seq), and Step, taking the smaller of
// the two heads, runs events in exactly the order one heap holding them all
// would. A caller that stably sorts a batch of events by time before
// scheduling it back to back therefore changes nothing but where the batch
// waits: sequence numbers only break ties between equal times, equal times
// within the batch keep their order, and every batch number stays on the
// same side of every number outside it.
//
// The engine deliberately has no concept of goroutines or wall-clock time:
// scheduler experiments need tens of thousands of 1 ms subframes with
// microsecond-resolution timing, and running them against Go's runtime
// would measure the Go scheduler and garbage collector rather than the
// paper's design (see DESIGN.md §1).
package platform

// Engine is a single-threaded discrete-event simulator.
type Engine struct {
	now  float64
	seq  int64
	heap []event
	lane []event // lane[head:] are pending, sorted by (at, seq)
	head int
	hook Hook
}

// Hook observes engine activity for tracing and diagnostics: OnAt fires
// when an event is scheduled (with its target time and the current clock),
// OnStep after an event executes. Both are synchronous; a hook must not
// mutate engine state. A nil hook (the default) costs one branch per call.
type Hook interface {
	OnAt(at, now float64)
	OnStep(now float64)
}

// SetHook installs (or with nil removes) the engine's observer.
func (e *Engine) SetHook(h Hook) { e.hook = h }

type multiHook struct{ hooks []Hook }

func (m *multiHook) OnAt(at, now float64) {
	for _, h := range m.hooks {
		h.OnAt(at, now)
	}
}

func (m *multiHook) OnStep(now float64) {
	for _, h := range m.hooks {
		h.OnStep(now)
	}
}

// Hooks combines several hooks into one, invoking them in order. Nil hooks
// are dropped; zero live hooks yields nil (the engine's "no observer" fast
// path), one yields that hook unwrapped.
func Hooks(hooks ...Hook) Hook {
	live := make([]Hook, 0, len(hooks))
	for _, h := range hooks {
		if h != nil {
			live = append(live, h)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return &multiHook{hooks: live}
}

// event is one scheduled callback. Events run in (at, seq) order: time
// first, then scheduling order, which makes ties FIFO.
type event struct {
	at  float64
	seq int64
	do  func()
}

func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// heapArity is the fan-out of the event heap: a 4-ary heap is half as deep
// as a binary one, and a node's children share a cache line or two.
const heapArity = 4

func (e *Engine) heapPush(ev event) {
	h := append(e.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !h[i].before(&h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
}

func (e *Engine) heapPop() event {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	i := 0
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		m := c
		for k := c + 1; k < c+heapArity && k < n; k++ {
			if h[k].before(&h[m]) {
				m = k
			}
		}
		if !h[m].before(&h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e.heap = h
	return top
}

// next returns the earliest pending event without removing it, or nil.
func (e *Engine) next() *event {
	var lane, top *event
	if e.head < len(e.lane) {
		lane = &e.lane[e.head]
	}
	if len(e.heap) > 0 {
		top = &e.heap[0]
	}
	if lane == nil || (top != nil && top.before(lane)) {
		return top
	}
	return lane
}

// New creates an engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time in microseconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a simulation bug, and silently clamping would corrupt
// causality.
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		panic("platform: event scheduled in the past")
	}
	if e.hook != nil {
		e.hook.OnAt(t, e.now)
	}
	e.seq++
	ev := event{at: t, seq: e.seq, do: fn}
	if e.head == len(e.lane) || t >= e.lane[len(e.lane)-1].at {
		e.laneAppend(ev)
		return
	}
	e.heapPush(ev)
}

// laneAppend adds ev at the lane's tail, first sliding the pending part
// down over the popped prefix when the slice is full and at least half
// popped, so a lane that never drains still reuses its storage.
func (e *Engine) laneAppend(ev event) {
	if len(e.lane) == cap(e.lane) && e.head > 0 && 2*e.head >= len(e.lane) {
		n := copy(e.lane, e.lane[e.head:])
		clear(e.lane[n:])
		e.lane = e.lane[:n]
		e.head = 0
	}
	e.lane = append(e.lane, ev)
}

// After schedules fn to run d microseconds from now.
func (e *Engine) After(d float64, fn func()) {
	if d < 0 {
		panic("platform: negative delay")
	}
	e.At(e.now+d, fn)
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.heap) + len(e.lane) - e.head }

// Step executes the next event and reports whether one existed.
func (e *Engine) Step() bool {
	var ev event
	switch next := e.next(); {
	case next == nil:
		return false
	case len(e.heap) > 0 && next == &e.heap[0]:
		ev = e.heapPop()
	default:
		ev = *next
		*next = event{}
		if e.head++; e.head == len(e.lane) {
			e.lane = e.lane[:0]
			e.head = 0
		}
	}
	e.now = ev.at
	ev.do()
	if e.hook != nil {
		e.hook.OnStep(e.now)
	}
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
// Events scheduled after t remain queued.
func (e *Engine) RunUntil(t float64) {
	for next := e.next(); next != nil && next.at <= t; next = e.next() {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}
