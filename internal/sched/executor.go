package sched

import (
	"fmt"

	"rtopex/internal/trace"
)

// serialCore is a core that runs whole jobs through exec, one at a time,
// and the outcome of its current job. done is the job's completion event,
// bound once per core, so running a job schedules no new closure.
type serialCore struct {
	id   int
	job  *Job
	out  Outcome
	proc float64 // start → completion; -1 for a drop
	done func()
}

// exec runs one job's task sequence (FFT → demod → L decode
// iterations) on a single core, with the slack-based deadline enforcement
// of §4.1: before each task (and before each decode iteration — the finest
// granularity at which the receiver can abandon work), the executor checks
// whether the step's estimated time fits the remaining budget and drops the
// subframe otherwise.
//
// extra is time consumed before the chain starts (dispatch overhead, cache
// refill). The job's platform-error term strikes one phase, chosen
// deterministically per job, so both drop-on-slack and late-completion
// outcomes occur, as on the real platform.
//
// If terminateAtDeadline is set (the global scheduler's behavior), a job
// still running at its deadline is cut off there and the core freed at the
// deadline; otherwise the job runs to natural completion and is late.
//
// The outcome lands in s.job, s.out and s.proc, and s.done fires on the
// engine at the moment the core becomes free.
func (s *serialCore) exec(env *Env, j *Job, extra float64, terminateAtDeadline bool) {
	core := s.id
	s.job = j
	eng := env.Eng
	start := eng.Now()
	t := start + extra
	if env.Trace != nil {
		env.emit(core, j, trace.EvStart, "")
	}

	// Phases are FFT, demod and L decode iterations; the jitter strikes
	// one of them, chosen per job.
	n := 2 + j.L
	strike := j.Index % n
	perIter := j.Tasks.Decode / float64(j.L)
	for i := 0; i < n; i++ {
		est := perIter
		switch i {
		case 0:
			est = j.Tasks.FFT
		case 1:
			est = j.Tasks.Demod
		}
		if t+est > j.Deadline {
			// Slack insufficient: drop now and free the core.
			at := t
			if at < start {
				at = start
			}
			if env.Trace != nil {
				env.emitAt(at, core, j, trace.EvDrop, serialPhaseName(i))
			}
			s.out, s.proc = OutcomeDropped, -1
			eng.At(at, s.done)
			return
		}
		if env.Trace != nil {
			env.emitAt(t, core, j, trace.EvPhase, serialPhaseName(i))
		}
		actual := est
		if i == strike {
			actual += j.JitterUS
			if actual < 0 {
				actual = 0
			}
		}
		t += actual
		if terminateAtDeadline && t > j.Deadline {
			if env.Trace != nil {
				env.emitAt(j.Deadline, core, j, trace.EvFinish, outcomeDetail(OutcomeLate))
			}
			s.out, s.proc = OutcomeLate, j.Deadline-start
			eng.At(j.Deadline, s.done)
			return
		}
	}

	finish := t
	proc := finish - start
	out := OutcomeACK
	switch {
	case finish > j.Deadline:
		out = OutcomeLate
	case !j.Decodable:
		out = OutcomeDecodeFail
	}
	if env.Trace != nil {
		env.emitAt(finish, core, j, trace.EvFinish, outcomeDetail(out))
	}
	s.out, s.proc = out, proc
	eng.At(finish, s.done)
}

// serialPhaseName labels exec's phase i for the trace.
func serialPhaseName(i int) string {
	switch i {
	case 0:
		return "fft"
	case 1:
		return "demod"
	default:
		return fmt.Sprintf("decode%d", i-2)
	}
}

// outcomeDetail is the trace detail string of a terminal outcome.
func outcomeDetail(o Outcome) string {
	switch o {
	case OutcomeACK:
		return "ack"
	case OutcomeDropped:
		return "drop"
	case OutcomeLate:
		return "late"
	case OutcomeDecodeFail:
		return "decodefail"
	}
	return "unknown"
}
