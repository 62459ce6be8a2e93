package sched

import (
	"fmt"

	"rtopex/internal/trace"
)

// StaticParallel is the BigStation/WiBench-style comparator of Table 2: the
// baseband chain is statically parallelized, with every subframe's
// parallelizable subtasks fanned across the basestation's fixed core set at
// design time. There is no runtime migration and no adaptation to load —
// the split is the same whether the subframe is MCS 0 or MCS 27.
//
// The contrast with RT-OPEX: static parallelism buys a shorter critical
// path (decode/k instead of decode), but it reserves k cores per
// basestation full-time, so it needs k/⌈Tmax⌉ times the resources of a
// partitioned schedule to host the same basestations. The ext-parallel
// experiment quantifies both sides.
type StaticParallel struct {
	// CoresPerBS is the fixed fan-out width per basestation.
	CoresPerBS int
	// ForkOverheadUS is charged once per parallelized task (thread wakeup
	// and result combination), analogous to RT-OPEX's δ.
	ForkOverheadUS float64

	env   *Env
	cores []*spGroup
}

// spGroup tracks one basestation's core set; the whole set processes one
// subframe at a time (the static split gives every core a share of each
// task, so the group is busy or idle as a unit).
type spGroup struct {
	busyUntil float64
	pending   []*Job
	busy      bool
}

// NewStaticParallel creates the comparator with k cores per basestation.
func NewStaticParallel(coresPerBS int) *StaticParallel {
	if coresPerBS < 1 {
		coresPerBS = 1
	}
	return &StaticParallel{CoresPerBS: coresPerBS, ForkOverheadUS: 20}
}

// Name implements Scheduler.
func (s *StaticParallel) Name() string { return fmt.Sprintf("static-parallel-%d", s.CoresPerBS) }

// Attach implements Scheduler.
func (s *StaticParallel) Attach(env *Env) {
	s.env = env
	groups := env.Cores / s.CoresPerBS
	s.cores = make([]*spGroup, groups)
	for i := range s.cores {
		s.cores[i] = &spGroup{}
	}
}

// OnArrival implements Scheduler.
func (s *StaticParallel) OnArrival(j *Job) {
	if j.BS >= len(s.cores) {
		s.env.emit(-1, j, trace.EvDrop, "no-core")
		s.env.M.Record(j, OutcomeDropped, -1)
		return
	}
	g := s.cores[j.BS]
	if g.busy {
		g.pending = append(g.pending, j)
		return
	}
	s.start(g, j)
}

// start executes the job with the static split: each parallelizable task's
// time divides by the fan-out (bounded by its subtask count), plus a fork
// overhead; demod runs on one core while the others idle.
func (s *StaticParallel) start(g *spGroup, j *Job) {
	g.busy = true
	now := s.env.Eng.Now()
	k := s.CoresPerBS
	// The group's lead core stands in for the whole fan-out in the trace.
	lead := j.BS * k
	s.env.emit(lead, j, trace.EvStart, "")

	span := func(serial float64, subtasks int) float64 {
		width := k
		if subtasks < width {
			width = subtasks
		}
		if width < 1 {
			width = 1
		}
		t := serial / float64(width)
		if width > 1 {
			t += s.ForkOverheadUS
		}
		return t
	}

	fft := span(j.Tasks.FFT, j.FFTSubtasks)
	demod := j.Tasks.Demod
	decode := span(j.Tasks.Decode, j.DecodeSubtasks)

	// Jitter strikes the demod phase (a single-core section) for parity
	// with the other schedulers' per-job error budget.
	demod += j.JitterUS
	if demod < 0 {
		demod = 0
	}

	t := now
	out := OutcomeACK
	var proc float64 = -1
	dropPhase := ""
	for i, step := range []float64{fft, demod, decode} {
		if t+step > j.Deadline {
			out = OutcomeDropped
			dropPhase = [...]string{"fft", "demod", "decode"}[i]
			break
		}
		if s.env.Trace != nil {
			s.env.emitAt(t, lead, j, trace.EvPhase, [...]string{"fft", "demod", "decode"}[i])
		}
		t += step
	}
	if out == OutcomeACK {
		proc = t - now
		switch {
		case t > j.Deadline:
			out = OutcomeLate
		case !j.Decodable:
			out = OutcomeDecodeFail
		}
	}
	end := t
	if out == OutcomeDropped {
		end = t // dropped at the failing boundary
		s.env.emitAt(end, lead, j, trace.EvDrop, dropPhase)
	} else {
		s.env.emitAt(end, lead, j, trace.EvFinish, outcomeDetail(out))
	}
	s.env.Eng.At(end, func() {
		s.env.M.Record(j, out, proc)
		g.busy = false
		if len(g.pending) > 0 {
			next := g.pending[0]
			g.pending = g.pending[1:]
			s.start(g, next)
		}
	})
}

// Finalize implements Scheduler.
func (s *StaticParallel) Finalize() {}

var _ Scheduler = (*StaticParallel)(nil)
