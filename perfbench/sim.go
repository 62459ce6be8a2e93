package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	"rtopex/internal/lte"
	"rtopex/internal/model"
	"rtopex/internal/platform"
	"rtopex/internal/sched"
	"rtopex/internal/trace"
	"rtopex/internal/transport"
)

// simSpec is one scheduler simulated over the multi-cell job set. Its name
// keys the scheduler's per-layer metrics and recorded digests.
type simSpec struct {
	name string
	new  func() sched.Scheduler
}

const (
	simCells      = 16
	simCoresPerBS = 2
	simRTT2US     = 500
)

var (
	simRTOPEX      = simSpec{"rtopex", func() sched.Scheduler { return sched.NewRTOPEX(simCoresPerBS) }}
	simGlobal      = simSpec{"global", func() sched.Scheduler { return sched.NewGlobal() }}
	simPartitioned = simSpec{"partitioned", func() sched.Scheduler { return sched.NewPartitioned(simCoresPerBS) }}
	// simSchedulers are the schedulers of the sim-cells workload, in the
	// order a round runs them.
	simSchedulers = []simSpec{simRTOPEX, simGlobal, simPartitioned}
)

// simSubframes is the per-cell length of the job set. Recorded digests
// hold for this length only.
func simSubframes(o opts) int {
	if o.small {
		return 50
	}
	return 2000
}

// buildJobSet materializes the trace-driven 16-cell job set: the four
// default load profiles repeated, 10 MHz, two antennas, fixed 500 µs
// transport, 2 cores per cell.
func buildJobSet(subframes int, seed uint64) (*sched.Workload, error) {
	profiles := make([]trace.Profile, simCells)
	for i := range profiles {
		profiles[i] = trace.DefaultProfiles[i%len(trace.DefaultProfiles)]
	}
	return sched.BuildWorkload(sched.WorkloadConfig{
		Basestations:   simCells,
		Subframes:      subframes,
		Antennas:       2,
		Bandwidth:      lte.BW10MHz,
		SNRdB:          30,
		Lm:             4,
		Params:         model.PaperGPP,
		Jitter:         model.DefaultJitter,
		IterLaw:        model.DefaultIterationLaw,
		Profiles:       profiles,
		FixedMCS:       -1,
		Transport:      transport.FixedPath{OneWay: simRTT2US},
		ExpectedRTT2US: simRTT2US,
		Seed:           seed,
	})
}

//go:embed digests.json
var digestsJSON []byte

// recordedDigests maps scheduler → seed → digest of the full-size job set.
func recordedDigests() (map[string]map[string]string, error) {
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("perfbench: digests.json: %w", err)
	}
	return d, nil
}

// digest hashes every outcome and migration count of a run. Runs of one
// job set under one scheduler are deterministic, so the digest is exact.
func digest(m *sched.Metrics) string {
	h := fnv.New64a()
	put := func(vs ...int) {
		for _, v := range vs {
			fmt.Fprintf(h, "%d,", v)
		}
	}
	for _, b := range m.PerBS {
		put(b.Jobs, b.ACK, b.Dropped, b.Late, b.DecodeFail)
	}
	put(m.TxJobs, m.TxMisses,
		m.FFTSubtasksTotal, m.FFTSubtasksMigrated, m.DecodeSubtasksTotal, m.DecodeSubtasksMigrated,
		m.FFTBatches, m.DecodeBatches, m.MigrationBatches, m.Preemptions, m.Recoveries)
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkConservation verifies that every released uplink job left the
// system exactly once, in one of the four outcomes.
func checkConservation(m *sched.Metrics, w *sched.Workload) error {
	if len(m.PerBS) != len(w.Jobs) {
		return fmt.Errorf("%d cells accounted, %d simulated", len(m.PerBS), len(w.Jobs))
	}
	for bs, b := range m.PerBS {
		released := 0
		for _, j := range w.Jobs[bs] {
			if !j.Tx {
				released++
			}
		}
		if out := b.ACK + b.Late + b.Dropped + b.DecodeFail; out != released || b.Jobs != released {
			return fmt.Errorf("cell %d: %d jobs released, %d recorded, ACK+Late+Dropped+DecodeFail = %d",
				bs, released, b.Jobs, out)
		}
	}
	return nil
}

// simPass is one simulation of the job set.
type simPass struct {
	m       *sched.Metrics
	elapsed time.Duration
	mem     memCounters
}

func simulate(spec simSpec, w *sched.Workload, hook platform.Hook) (simPass, error) {
	before := readMem()
	start := time.Now()
	m, err := sched.RunConfigured(w, spec.new(), sched.RunConfig{Cores: simCells * simCoresPerBS, EngineHook: hook})
	elapsed := time.Since(start)
	return simPass{m: m, elapsed: elapsed, mem: readMem().since(before)}, err
}

// checkPass counts one simulation and records it as failed when its
// accounting does not conserve jobs or its digest differs from the first
// pass's, or from the digest recorded for this seed.
func checkPass(rep *report, p simPass, w *sched.Workload, want *string) {
	rep.attempted++
	if err := checkConservation(p.m, w); err != nil {
		rep.violate("simulation: %v", err)
		return
	}
	got := digest(p.m)
	if *want == "" {
		*want = got
	}
	if got != *want {
		rep.violate("simulation digest %s, want %s", got, *want)
	}
}

// simRun collects one scheduler's passes over a run.
type simRun struct {
	spec simSpec
	want string // digest every pass must give
	// first holds the first pass's metrics only: keeping every pass's would
	// grow the heap with the run's length.
	first   *sched.Metrics
	passes  []simPass
	traced  []time.Duration
	replays []replayResult
}

// runSim runs the sim-cells workload: rounds of one pass per scheduler over
// the same job set, so the three schedulers share the host's state of the
// moment. A traced round adds, per scheduler, a pass with the engine hook
// recording its schedule, which a bare engine then replays.
func runSim(o opts) (*report, error) {
	n := simSubframes(o)
	w, buildS, err := repeatSetup(func() (*sched.Workload, error) { return buildJobSet(n, o.seed) })
	if err != nil {
		return nil, fmt.Errorf("simulation set-up: %w", err)
	}
	digests := o.digests
	if digests == nil {
		if digests, err = recordedDigests(); err != nil {
			return nil, err
		}
	}
	runs := make([]*simRun, len(simSchedulers))
	for i, spec := range simSchedulers {
		runs[i] = &simRun{spec: spec}
		// The recorded digests are of the full-size job set; a small run
		// is checked only against digests a test supplies.
		if !o.small || o.digests != nil {
			runs[i].want = digests[spec.name][strconv.FormatUint(o.seed, 10)]
		}
	}

	rep := newReport()
	subframes := float64(simCells * n)
	dur := time.Duration(o.seconds * float64(time.Second))
	var rounds []float64
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < dur {
		var round time.Duration
		for _, r := range runs {
			p, err := simulate(r.spec, w, nil)
			if err != nil {
				return nil, err
			}
			checkPass(rep, p, w, &r.want)
			if r.first == nil {
				r.first = p.m
			}
			p.m = nil
			r.passes = append(r.passes, p)
			round += p.elapsed
			if !o.trace {
				continue
			}
			rec := &schedule{}
			tp, err := simulate(r.spec, w, rec)
			if err != nil {
				return nil, err
			}
			checkPass(rep, tp, w, &r.want)
			r.traced = append(r.traced, tp.elapsed)
			res := rec.replay()
			if res.events != len(rec.steps) || res.mismatched {
				rep.violate("%s: replay executed %d events (order mismatch: %v), the hook saw %d",
					r.spec.name, res.events, res.mismatched, len(rec.steps))
			}
			r.replays = append(r.replays, res)
		}
		rounds = append(rounds, round.Seconds())
	}

	if !o.trace {
		rep.metrics["setup_s"] = buildS
		rep.metrics["latency_ms"] = median(rounds) * 1e3
		rep.metrics["subframes_per_s"] = subframes * float64(len(runs)*len(rounds)) / sum(rounds)
		return rep, nil
	}
	var events, replayNS, simNS, tracedNS float64
	for _, r := range runs {
		e, rNS, sNS, tNS := r.report(rep, subframes)
		events += e
		replayNS += rNS
		simNS += sNS
		tracedNS += tNS
	}
	rep.metrics["platform.events"] = events
	rep.metrics["platform.replay_ns_per_event"] = replayNS / events
	rep.metrics["sched.build_s"] = buildS
	rep.metrics["bench.trace_overhead_frac"] = tracedNS/simNS - 1
	return rep, nil
}

// report sets one scheduler's per-layer metrics from a traced run and
// checks that the engine's replay stays below the simulation's time. It
// returns the events per pass and the median replay, simulation and traced
// pass times in ns.
func (r *simRun) report(rep *report, subframes float64) (events, replayNS, simNS, tracedNS float64) {
	elapsed := make([]float64, len(r.passes))
	var allocs, gcs float64
	for i, p := range r.passes {
		elapsed[i] = float64(p.elapsed.Nanoseconds())
		allocs += float64(p.mem.mallocs)
		gcs += float64(p.mem.numGC)
	}
	replays := make([]float64, len(r.replays))
	traced := make([]float64, len(r.traced))
	for i := range r.replays {
		replays[i] = float64(r.replays[i].elapsed.Nanoseconds())
		traced[i] = float64(r.traced[i].Nanoseconds())
	}
	events = float64(r.replays[0].events)
	simNS, replayNS, tracedNS = median(elapsed), median(replays), median(traced)
	if replayNS >= simNS {
		rep.violate("%s: engine replay took %.0f ns, not less than the %.0f ns simulation", r.spec.name, replayNS, simNS)
	}
	passN := float64(len(r.passes))
	prefix := "sched." + r.spec.name + "."
	rep.metrics[prefix+"sf_per_s"] = subframes * passN / (sum(elapsed) / 1e9)
	rep.metrics[prefix+"events_per_subframe"] = events / subframes
	rep.metrics[prefix+"ns_per_event"] = simNS / events
	rep.metrics[prefix+"self_ns_per_event"] = (simNS - replayNS) / events
	rep.metrics[prefix+"allocs_per_subframe"] = allocs / passN / subframes
	rep.metrics[prefix+"gc_cycles"] = gcs / passN
	rep.metrics[prefix+"miss_rate"] = r.first.MissRate()
	if r.spec.name == simRTOPEX.name {
		rep.metrics[prefix+"migration_batches"] = float64(r.first.MigrationBatches)
		rep.metrics[prefix+"migrated_fft_frac"] = r.first.MigratedFFTFraction()
		rep.metrics[prefix+"migrated_decode_frac"] = r.first.MigratedDecodeFraction()
	}
	return events, replayNS, simNS, tracedNS
}

// schedule records the engine's At-schedule through platform.Hook: the
// target time of every scheduled event, and after each executed event the
// number of schedulings so far and the clock.
type schedule struct {
	at    []float64
	steps []int
	now   []float64
}

func (s *schedule) OnAt(at, _ float64) { s.at = append(s.at, at) }

func (s *schedule) OnStep(now float64) {
	s.steps = append(s.steps, len(s.at))
	s.now = append(s.now, now)
}

type replayResult struct {
	events     int
	mismatched bool
	elapsed    time.Duration
}

// replay runs the recorded schedule through a bare engine whose events do
// nothing but schedule what the original event scheduled, so its time is
// the engine's own cost. Everything scheduled up to the end of the first
// event is queued up front: that batch's ordering against the rest is the
// same either way, since the first event pops before any of its children.
func (s *schedule) replay() replayResult {
	var r replayResult
	if len(s.steps) == 0 {
		return r
	}
	eng := platform.New()
	var fire func()
	fire = func() {
		k := r.events
		r.events++
		if k >= len(s.steps) || eng.Now() != s.now[k] {
			r.mismatched = true
			return
		}
		if k == 0 {
			return
		}
		for _, t := range s.at[s.steps[k-1]:s.steps[k]] {
			eng.At(t, fire)
		}
	}
	start := time.Now()
	for _, t := range s.at[:s.steps[0]] {
		eng.At(t, fire)
	}
	eng.Run()
	r.elapsed = time.Since(start)
	return r
}
