package sched

import (
	"fmt"
	"math"
	"slices"

	"rtopex/internal/trace"
)

// RTOPEX is the paper's contribution (§3.2): a partitioned schedule
// underneath, plus opportunistic migration of parallelizable subtasks (FFT
// and turbo decode) into the idle gaps of other cores at runtime.
//
// A processing thread reaching a parallelizable task queries the shared CPU
// state, predicts each idle core's free window fck from the deterministic
// subframe arrival pattern, and applies Algorithm 1 to choose how many
// subtasks to offload. Migrated batches execute on the host core until they
// finish or the host's own subframe arrives (preemption). When the local
// thread finishes its share, it consumes ready results; results that are
// not ready are either awaited (when that is provably cheaper) or
// recomputed locally — the recovery path that makes RT-OPEX never worse
// than the serial baseline.
type RTOPEX struct {
	// CoresPerBS is the underlying partitioned schedule's ⌈Tmax⌉.
	CoresPerBS int
	// DeltaUS is the migration overhead δ (§4.4 measures ≈18–20 µs per
	// migrated task). By default it is charged once per migrated batch,
	// matching the measurement ("the cost of migration is fixed across the
	// subtasks" — one OAI context fetch per migration); set PerSubtaskDelta
	// for Algorithm 1's literal ⌊fck/(tp+δ)⌋ accounting.
	DeltaUS         float64
	PerSubtaskDelta bool
	// MigrateFFT / MigrateDecode enable migration per task type.
	MigrateFFT    bool
	MigrateDecode bool
	// GreedyAll is an ablation that drops requirements R2/R3 and offloads
	// as much as the free windows allow.
	GreedyAll bool
	// NoWait is an ablation forcing the paper-literal recovery: the local
	// thread never waits for an unfinished batch, always recomputing,
	// even when the batch is within microseconds of completion.
	NoWait bool

	env   *Env
	cores []*rcore
	// Planning scratch reused by every planTask call.
	hosts  []*rcore
	free   []float64
	counts []int
	spare  []*migBatch // batches free for reuse
}

type rcore struct {
	id   int
	bs   int // owning basestation under the partitioned schedule
	slot int // subframe phase: handles indices ≡ slot (mod CoresPerBS)

	running  bool
	batch    *migBatch // non-nil while hosting a migrated batch
	pending  []*Job
	lastFree float64
	everUsed bool
	preempt  preemptCache // see predictedNextPreemption

	// The running job's phase chain. Each step schedules at most one
	// event, fire, which performs the next step; one set of fields per
	// core therefore carries the chain without a closure per phase.
	job     *Job
	next    rstep
	start   float64     // the job's start
	phaseAt float64     // the decode task's start, for debugLate
	local   float64     // its local share, jitter included, for debugLate
	at      float64     // the time fire is scheduled for
	strike  int         // the phase the job's platform error strikes
	batches []*migBatch // the current task's migrated batches
	fire    func()
}

// rstep is what a core's pending phase event does.
type rstep int

const (
	stepFFTJoin    rstep = iota // local FFT share done: join the FFT batches
	stepDemod                   // FFT done: run demod
	stepDecode                  // demod done: run decode
	stepDecodeJoin              // local decode share done: join the decode batches
	stepFinish                  // decode done: record the outcome
)

// migBatch is a set of subtasks executing on a host core on behalf of a
// job running elsewhere.
type migBatch struct {
	host        *rcore
	owner       *Job // the job whose subtasks the batch carries
	decode      bool // decode batch (else FFT)
	count       int
	tp          float64
	start       float64
	preemptedAt float64 // < 0 when not preempted
	released    bool    // owner consumed or abandoned the batch
	ended       bool    // its natural-completion event has run
	complete    func()  // that event; bound once, kept across reuse
}

// newBatch takes a batch from the spare pool, or makes one.
func (r *RTOPEX) newBatch() *migBatch {
	if n := len(r.spare); n > 0 {
		b := r.spare[n-1]
		r.spare = r.spare[:n-1]
		return b
	}
	b := &migBatch{}
	b.complete = func() { r.batchCompleted(b) }
	return b
}

// recycle returns b to the spare pool once nothing refers to it any more:
// its owner has released it and its completion event has run (both of
// which also leave its host's batch pointing elsewhere).
func (r *RTOPEX) recycle(b *migBatch) {
	if b.released && b.ended {
		*b = migBatch{complete: b.complete}
		r.spare = append(r.spare, b)
	}
}

// debugLate, when set, observes late decode completions (test hook).
var debugLate func(j *Job, decodeStart, localTime, finish float64)

// DebugLate installs a test/diagnostic hook observing late decode
// completions under RT-OPEX.
func DebugLate(fn func(j *Job, decodeStart, localTime, finish float64)) { debugLate = fn }

// NewRTOPEX creates an RT-OPEX scheduler with the paper's defaults.
func NewRTOPEX(coresPerBS int) *RTOPEX {
	if coresPerBS < 1 {
		coresPerBS = 1
	}
	return &RTOPEX{
		CoresPerBS:    coresPerBS,
		DeltaUS:       20,
		MigrateFFT:    true,
		MigrateDecode: true,
	}
}

// Name implements Scheduler.
func (r *RTOPEX) Name() string { return "rt-opex" }

// Attach implements Scheduler.
func (r *RTOPEX) Attach(env *Env) {
	r.env = env
	r.cores = make([]*rcore, env.Cores)
	for i := range r.cores {
		c := &rcore{id: i, bs: i / r.CoresPerBS, slot: i % r.CoresPerBS}
		c.fire = func() { r.advance(c) }
		r.cores[i] = c
	}
}

// OnArrival implements Scheduler.
func (r *RTOPEX) OnArrival(j *Job) {
	idx := j.BS*r.CoresPerBS + j.Index%r.CoresPerBS
	if idx >= len(r.cores) {
		r.env.emit(-1, j, trace.EvDrop, "no-core")
		r.env.M.Record(j, OutcomeDropped, -1)
		return
	}
	c := r.cores[idx]
	if c.running {
		c.pending = append(c.pending, j)
		return
	}
	if c.batch != nil && c.batch.preemptedAt < 0 {
		// The host's own subframe preempts the migrated batch (state 2 →
		// state 3 in Fig. 12).
		c.batch.preemptedAt = r.env.Eng.Now()
		r.env.M.Preemptions++
		r.env.emit(c.id, c.batch.owner, trace.EvMigPreempt, "")
		c.batch = nil
	}
	r.startJob(c, j)
}

func (r *RTOPEX) startJob(c *rcore, j *Job) {
	c.running = true
	c.everUsed = true
	now := r.env.Eng.Now()
	r.env.emit(c.id, j, trace.EvStart, "")

	c.job = j
	c.start = now
	// Jitter strike phase: same per-job placement rule as serialCore.exec so
	// workloads are comparable across schedulers.
	c.strike = j.Index % (2 + j.L)
	r.phaseFFT(c, j, now)
}

// then schedules step to run on core c at time t.
func (r *RTOPEX) then(c *rcore, step rstep, t float64) {
	c.next, c.at = step, t
	r.env.Eng.At(t, c.fire)
}

// advance performs core c's pending step of its running job.
func (r *RTOPEX) advance(c *rcore) {
	j := c.job
	switch c.next {
	case stepFFTJoin:
		r.then(c, stepDemod, r.join(c, c.at, j.FFTSubtaskUS))
	case stepDemod:
		r.phaseDemod(c, j, c.at)
	case stepDecode:
		r.phaseDecode(c, j, c.at)
	case stepDecodeJoin:
		r.then(c, stepFinish, r.join(c, c.at, j.DecodeSubtaskUS))
	case stepFinish:
		finish := c.at
		out := OutcomeACK
		switch {
		case finish > j.Deadline:
			out = OutcomeLate
			if debugLate != nil {
				debugLate(j, c.phaseAt, c.local, finish)
			}
		case !j.Decodable:
			out = OutcomeDecodeFail
		}
		r.finishJob(c, j, out, finish-c.start, finish)
	}
}

// phaseFFT runs the FFT task, migrating subtasks if enabled.
func (r *RTOPEX) phaseFFT(c *rcore, j *Job, now float64) {
	r.env.emit(c.id, j, trace.EvPhase, "fft")
	r.env.M.FFTSubtasksTotal += j.FFTSubtasks
	local := r.planTask(c, j, now, j.FFTSubtasks, j.FFTSubtaskUS, r.MigrateFFT, false)
	localTime := float64(local) * j.FFTSubtaskUS
	if now+localTime > j.Deadline {
		r.abandon(c, now)
		r.env.emit(c.id, j, trace.EvDrop, "fft")
		r.finishJob(c, j, OutcomeDropped, -1, now)
		return
	}
	r.env.M.FFTSubtasksMigrated += migratedCount(c.batches)
	if c.strike == 0 {
		localTime = math.Max(0, localTime+j.JitterUS)
	}
	r.then(c, stepFFTJoin, now+localTime)
}

// phaseDemod runs the (serial) demod task.
func (r *RTOPEX) phaseDemod(c *rcore, j *Job, now float64) {
	if now+j.Tasks.Demod > j.Deadline {
		r.env.emit(c.id, j, trace.EvDrop, "demod")
		r.finishJob(c, j, OutcomeDropped, -1, now)
		return
	}
	r.env.emit(c.id, j, trace.EvPhase, "demod")
	actual := j.Tasks.Demod
	if c.strike == 1 {
		actual = math.Max(0, actual+j.JitterUS)
	}
	r.then(c, stepDecode, now+actual)
}

// phaseDecode runs the decode task, migrating code blocks if enabled.
func (r *RTOPEX) phaseDecode(c *rcore, j *Job, now float64) {
	r.env.emit(c.id, j, trace.EvPhase, "decode")
	r.env.M.DecodeSubtasksTotal += j.DecodeSubtasks
	local := r.planTask(c, j, now, j.DecodeSubtasks, j.DecodeSubtaskUS, r.MigrateDecode, true)
	localTime := float64(local) * j.DecodeSubtaskUS
	if now+localTime > j.Deadline {
		r.abandon(c, now)
		r.env.emit(c.id, j, trace.EvDrop, "decode")
		r.finishJob(c, j, OutcomeDropped, -1, now)
		return
	}
	r.env.M.DecodeSubtasksMigrated += migratedCount(c.batches)
	if c.strike >= 2 {
		localTime = math.Max(0, localTime+j.JitterUS)
	}
	c.phaseAt, c.local = now, localTime
	r.then(c, stepDecodeJoin, now+localTime)
}

func (r *RTOPEX) finishJob(c *rcore, j *Job, out Outcome, proc float64, at float64) {
	r.env.M.Record(j, out, proc)
	r.env.M.RecordGap(j, out, at)
	if out != OutcomeDropped {
		// Drops already emitted EvDrop with the failing phase.
		r.env.emitAt(at, c.id, j, trace.EvFinish, outcomeDetail(out))
	}
	c.running = false
	c.lastFree = at
	if len(c.pending) > 0 {
		next := c.pending[0]
		c.pending = c.pending[1:]
		r.startJob(c, next)
	}
}

// planTask applies Algorithm 1 across currently idle cores and installs the
// migrated batches in c.batches. It returns the number of subtasks kept
// local.
func (r *RTOPEX) planTask(c *rcore, j *Job, now float64, subtasks int, tp float64, enabled bool, decode bool) int {
	c.batches = c.batches[:0]
	if !enabled || subtasks <= 1 || tp <= 0 {
		return subtasks
	}
	hosts, free := r.hosts[:0], r.free[:0]
	for _, k := range r.cores {
		if k == c || k.running || k.batch != nil {
			continue
		}
		// The usable window is bounded both by the host's next own
		// subframe and by the migrating job's deadline: a batch completing
		// past the deadline cannot save the subframe.
		fck := math.Min(r.predictedNextPreemption(k, now), j.Deadline) - now
		if fck <= 0 {
			continue
		}
		hosts = append(hosts, k)
		free = append(free, fck)
	}
	r.hosts, r.free = hosts, free
	if len(hosts) == 0 {
		return subtasks
	}
	counts := algorithm1Into(r.counts, subtasks, tp, r.DeltaUS, r.PerSubtaskDelta, r.GreedyAll, free)
	r.counts = counts
	local := subtasks
	for i, n := range counts {
		if n <= 0 {
			continue
		}
		b := r.newBatch()
		b.host, b.owner, b.decode, b.count, b.tp, b.start, b.preemptedAt = hosts[i], j, decode, n, tp, now, -1
		hosts[i].batch = b
		local -= n
		c.batches = append(c.batches, b)
		r.env.M.MigrationBatches++
		if decode {
			r.env.M.DecodeBatches++
		} else {
			r.env.M.FFTBatches++
		}
		if r.env.Trace != nil {
			r.env.emit(b.host.id, j, trace.EvMigPlan, fmt.Sprintf("%s n=%d", taskName(decode), n))
		}
		r.env.Eng.At(r.batchEnd(b), b.complete)
	}
	return local
}

// batchCompleted is b's natural completion. It releases the host (state 2
// → state 1) unless a preemption or a recompute already did.
func (r *RTOPEX) batchCompleted(b *migBatch) {
	if b.host.batch == b && b.preemptedAt < 0 {
		b.host.batch = nil
		b.host.lastFree = r.env.Eng.Now()
		r.env.emit(b.host.id, b.owner, trace.EvMigComplete, "")
	}
	b.ended = true
	r.recycle(b)
}

// batchEnd is the natural completion time of a batch on its host.
func (r *RTOPEX) batchEnd(b *migBatch) float64 {
	if r.PerSubtaskDelta {
		return b.start + float64(b.count)*(b.tp+r.DeltaUS)
	}
	return b.start + r.DeltaUS + float64(b.count)*b.tp
}

// completedBy returns how many of the batch's subtasks finished by time t.
func (r *RTOPEX) completedBy(b *migBatch, t float64) int {
	var done float64
	if r.PerSubtaskDelta {
		done = (t - b.start) / (b.tp + r.DeltaUS)
	} else {
		done = (t - b.start - r.DeltaUS) / b.tp
	}
	n := int(math.Floor(done))
	if n < 0 {
		n = 0
	}
	if n > b.count {
		n = b.count
	}
	return n
}

// join resolves all migrated batches when the local share completes at
// localFinish: ready results are consumed; preempted or slow batches are
// recovered by local recomputation (or awaited when provably cheaper and
// NoWait is unset). It returns the task completion time.
func (r *RTOPEX) join(c *rcore, localFinish, tp float64) float64 {
	finish := localFinish
	var recovery float64
	for _, b := range c.batches {
		b.released = true
		switch {
		case b.preemptedAt >= 0:
			// Result not ready: host was preempted (state 6 recovery).
			unfinished := b.count - r.completedBy(b, b.preemptedAt)
			if unfinished > 0 {
				recovery += float64(unfinished) * tp
				r.env.M.Recoveries++
				if r.env.Trace != nil {
					r.env.emitAt(localFinish, b.host.id, b.owner, trace.EvMigRecompute,
						fmt.Sprintf("n=%d preempted", unfinished))
				}
			} else {
				// Preempted after every subtask finished: results usable.
				r.env.emitAt(localFinish, b.host.id, b.owner, trace.EvMigConsume, "")
			}
		default:
			end := r.batchEnd(b)
			if end <= localFinish {
				r.env.emitAt(localFinish, b.host.id, b.owner, trace.EvMigConsume, "")
				break // result ready
			}
			// Batch still running: recompute or wait, whichever is
			// cheaper (recompute-only when NoWait).
			unfinished := b.count - r.completedBy(b, localFinish)
			recompute := float64(unfinished) * tp
			wait := end - localFinish
			if r.NoWait || recompute < wait {
				recovery += recompute
				r.env.M.Recoveries++
				if r.env.Trace != nil {
					r.env.emitAt(localFinish, b.host.id, b.owner, trace.EvMigRecompute,
						fmt.Sprintf("n=%d slow", unfinished))
				}
				// Host abandons the rest of the batch immediately.
				if b.host.batch == b {
					b.host.batch = nil
					b.host.lastFree = localFinish
				}
			} else {
				if r.env.Trace != nil {
					r.env.emitAt(localFinish, b.host.id, b.owner, trace.EvMigWait,
						fmt.Sprintf("%.3gus", wait))
				}
				if end > finish {
					finish = end
				}
			}
		}
		r.recycle(b)
	}
	c.dropBatches()
	return finish + recovery
}

// abandon cancels planned batches when the owner drops the job, reversing
// the migration counters planTask booked: an abandoned batch never ran on
// behalf of a completed subframe, so counting it would inflate the
// migration fractions of Fig. 16 with work that was thrown away.
func (r *RTOPEX) abandon(c *rcore, now float64) {
	for _, b := range c.batches {
		b.released = true
		r.env.M.MigrationBatches--
		if b.decode {
			r.env.M.DecodeBatches--
		} else {
			r.env.M.FFTBatches--
		}
		r.env.emitAt(now, b.host.id, b.owner, trace.EvMigAbandon, "")
		if b.host.batch == b && b.preemptedAt < 0 {
			b.host.batch = nil
			b.host.lastFree = now
		}
		r.recycle(b)
	}
	c.dropBatches()
}

// dropBatches empties c.batches once join or abandon has released them, so
// the core holds no pointer to a batch the spare pool may hand out again.
func (c *rcore) dropBatches() {
	clear(c.batches)
	c.batches = c.batches[:0]
}

// predictedNextPreemption estimates when core k must next be surrendered to
// its own subframe: the scheduler knows the deterministic 1 ms frame clock
// (the watchdog's global reference time) and the expected transport
// latency, so the next preemption is the earliest expected arrival
// gen + E[RTT/2] after now. This correctly accounts for in-flight
// subframes — ones already generated but still crossing the transport —
// which would otherwise preempt a freshly placed batch almost immediately.
// Past the end of the trace it returns +Inf.
func (r *RTOPEX) predictedNextPreemption(k *rcore, now float64) float64 {
	pc := &k.preempt
	if !pc.ok || !(now >= pc.lo && now <= pc.hi) {
		r.refreshPreempt(k, now)
	}
	t, idx := pc.t, pc.tIdx
	if t <= now {
		t, idx = pc.next, pc.nextIdx
	}
	// Index bound: no arrivals after the last subframe.
	if idx >= r.env.SubframesPerBS {
		return math.Inf(1)
	}
	return t
}

// preemptCache holds one core's predictedNextPreemption inputs for the
// span of now over which the frame index m of the next expected arrival
// stays the same. planTask asks for every idle core's prediction at every
// plan, many times per frame, so the closed form is worked out once per
// core and frame instead.
type preemptCache struct {
	ok     bool
	lo, hi float64 // m is the same for every now in [lo, hi]
	// t is the m-th expected arrival and next the one after it, each with
	// its subframe index. now ≥ t selects next.
	t, next       float64
	tIdx, nextIdx int
}

// refreshPreempt recomputes core k's cache at now. The expected arrivals
// for the core are (slot + m·c)·1000 + E[RTT/2], and the next one after now
// has m = ⌈(now − first)/(1000·c)⌉, bumped by one when that lands on now.
// Every value is evaluated with the same expressions, in the same order, as
// that closed form, so the cache returns it bit for bit. The window [lo, hi]
// is exact too: (now − first)/(1000·c) is nondecreasing in now under
// rounding, so every now between lo (this query, whose quotient is above
// m − 1) and hi (a time whose quotient is at most m) has the same m.
func (r *RTOPEX) refreshPreempt(k *rcore, now float64) {
	c := float64(r.CoresPerBS)
	first := float64(k.slot)*1000 + r.env.ExpectedRTT2
	quotient := func(x float64) float64 { return (x - first) / (1000 * c) }
	m, lo := 0.0, math.Inf(-1)
	if now >= first {
		m = math.Ceil(quotient(now))
		lo = now
	}
	t := first + m*1000*c
	next := t + 1000*c
	// t, or a float a few ulps below it, is the last time still in frame m.
	hi := t
	for i := 0; i < 4 && !(quotient(hi) <= m); i++ {
		hi = math.Nextafter(hi, math.Inf(-1))
	}
	if !(quotient(hi) <= m) {
		hi = math.Inf(-1) // no window found: recompute on every query
	}
	index := func(t float64) int { return k.slot + int((t-first)/1000+0.5) }
	k.preempt = preemptCache{ok: true, lo: lo, hi: hi, t: t, next: next, tIdx: index(t), nextIdx: index(next)}
}

// taskName labels a batch's task type for the trace.
func taskName(decode bool) string {
	if decode {
		return "decode"
	}
	return "fft"
}

func migratedCount(batches []*migBatch) int {
	n := 0
	for _, b := range batches {
		n += b.count
	}
	return n
}

// Finalize implements Scheduler.
func (r *RTOPEX) Finalize() {}

// Algorithm1 is the migration allocation of the paper's Alg. 1: given P
// subtasks of duration tp, the migration overhead δ, and the free time
// windows of candidate idle cores, it returns how many subtasks to offload
// to each core. The three requirements:
//
//	R1: noff ≤ limoff — the batch must fit the core's free window;
//	R2: S − noff ≥ maxoff — keep at least as many local subtasks as the
//	    largest batch already offloaded, so the local thread finishes last;
//	R3: noff ≤ ⌊S/2⌋ — never offload more than remain.
//
// greedy drops R2/R3 (ablation). perSubtaskDelta charges δ per subtask in
// limoff (the listing's ⌊fck/(tp+δ)⌋); otherwise δ is charged once per
// batch.
func Algorithm1(p int, tp, delta float64, perSubtaskDelta, greedy bool, free []float64) []int {
	return algorithm1Into(nil, p, tp, delta, perSubtaskDelta, greedy, free)
}

// algorithm1Into is Algorithm1 writing its counts into dst's storage,
// which it grows as needed; the previous contents of dst do not matter.
func algorithm1Into(dst []int, p int, tp, delta float64, perSubtaskDelta, greedy bool, free []float64) []int {
	counts := slices.Grow(dst[:0], len(free))[:len(free)]
	clear(counts)
	if p <= 1 || tp <= 0 {
		return counts
	}
	s := p
	maxoff := 0
	for k := range free {
		if s <= 1 {
			break
		}
		var limoff int
		if perSubtaskDelta {
			limoff = int(math.Floor(free[k] / (tp + delta)))
		} else {
			if free[k] <= delta {
				continue
			}
			limoff = int(math.Floor((free[k] - delta) / tp))
		}
		noff := limoff
		if !greedy {
			noff = min3(s-maxoff, limoff, s/2)
		} else if noff > s-1 {
			noff = s - 1
		}
		if noff <= 0 {
			continue
		}
		if noff > maxoff {
			maxoff = noff
		}
		counts[k] = noff
		s -= noff
	}
	return counts
}

func min3(a, b, c int) int {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}

var _ Scheduler = (*RTOPEX)(nil)
var _ Scheduler = (*Partitioned)(nil)
var _ Scheduler = (*Global)(nil)
