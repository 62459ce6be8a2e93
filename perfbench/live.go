package main

import (
	"fmt"
	"runtime"
	"time"

	"rtopex/internal/obs"
	"rtopex/internal/phy"
	"rtopex/internal/realtime"
	"rtopex/internal/trace"
)

// The live cell: one trace-driven cell on one worker core through
// realtime.Run, open loop. The release period is long next to a subframe's
// processing time, so the worker is lightly loaded and a drop would need a
// stall of several periods.
const (
	liveDilation = 20 // release period 20 ms, deadline 40 ms after release
	liveAntennas = 2
	liveSNRdB    = 30 // every MCS of the profile decodes
	// livePasses is how many realtime.Run calls share a run's time: each
	// call pre-encodes its inputs again, so set-up is timed this often.
	livePasses = 5
)

var livePeriod = time.Duration(liveDilation * float64(time.Millisecond))

// liveSubframes is how many subframes one pass releases so that
// livePasses passes last about o.seconds.
func liveSubframes(o opts) int {
	if o.small {
		return 4
	}
	return max(10, int(o.seconds*float64(time.Second)/float64(livePeriod)/livePasses))
}

// liveConfig configures one pass of a run. Each pass draws its own stretch
// of the load trace, so a run's MCS mix is that of all its subframes, not of one
// pass's repeated.
func liveConfig(o opts, pass, subframes int, sink trace.Tracer, reg *obs.Registry) realtime.Config {
	return realtime.Config{
		Basestations: 1,
		CoresPerBS:   1,
		Subframes:    subframes,
		Antennas:     liveAntennas,
		SNRdB:        liveSNRdB,
		MCS:          -1,
		Profiles:     trace.DefaultProfiles[:1],
		Dilation:     liveDilation,
		Seed:         o.seed*livePasses + uint64(pass),
		Tracer:       sink,
		Obs:          reg,
	}
}

// liveSink is the realtime.Config.Tracer of one pass. It keeps, per
// subframe, the scheduled release and the finish time, and in a traced
// pass also the start, the stage boundaries and when the feeder actually
// released the subframe. realtime wraps it in trace.Locked, so it needs
// no lock of its own.
type liveSink struct {
	detailed bool
	// firstArrival is when the feeder emitted subframe 0's arrival: the end
	// of realtime.Run's set-up.
	firstArrival time.Time
	arrive       []float64 // scheduled release, µs since the feeder epoch
	feederLate   []float64 // actual release minus scheduled, µs (detailed)
	start        []float64 // µs since the epoch (detailed)
	stage        [][numStages]float64
	finish       []float64
	outcome      []string
	arrivals     int
	finishes     int
	drops        int
	phases       int
	unexpected   int
}

// liveStages are the receive-chain stages in pipeline order, with their
// names in the realtime.stage.* metrics.
var liveStages = [...]struct {
	task   phy.TaskName
	metric string
}{
	{phy.TaskFFT, "realtime.stage.fft.us_p50"},
	{phy.TaskChEst, "realtime.stage.chest.us_p50"},
	{phy.TaskDemod, "realtime.stage.demod.us_p50"},
	{phy.TaskDecode, "realtime.stage.decode.us_p50"},
}

const numStages = len(liveStages)

func newLiveSink(subframes int, detailed bool) *liveSink {
	s := &liveSink{
		detailed: detailed,
		arrive:   make([]float64, subframes),
		finish:   make([]float64, subframes),
		outcome:  make([]string, subframes),
	}
	if detailed {
		s.feederLate = make([]float64, subframes)
		s.start = make([]float64, subframes)
		s.stage = make([][numStages]float64, subframes)
	}
	return s
}

func (s *liveSink) Enabled() bool { return true }

func (s *liveSink) Emit(e trace.Event) {
	if e.BS != 0 || e.Subframe < 0 || e.Subframe >= len(s.arrive) {
		s.unexpected++
		return
	}
	j := e.Subframe
	switch e.Event {
	case trace.EvArrive:
		now := time.Now()
		if s.arrivals == 0 {
			s.firstArrival = now
		}
		s.arrivals++
		s.arrive[j] = e.Time
		if s.detailed {
			// Subframe 0 is released at the epoch, within microseconds, so
			// its emission time stands in for the epoch.
			s.feederLate[j] = us(now.Sub(s.firstArrival)) - e.Time
		}
	case trace.EvStart:
		if s.detailed {
			s.start[j] = e.Time
		}
	case trace.EvPhase:
		s.phases++
		if !s.detailed {
			return
		}
		for k, st := range liveStages {
			if string(st.task) == e.Detail {
				s.stage[j][k] = e.Time
			}
		}
	case trace.EvFinish:
		s.finishes++
		s.finish[j] = e.Time
		s.outcome[j] = e.Detail
	case trace.EvDrop:
		s.drops++
	default:
		s.unexpected++
	}
}

// checkLive verifies that a pass accounted for every released subframe
// exactly once, and that realtime's Stats agree with the event stream.
func checkLive(st *realtime.Stats, s *liveSink, released int) error {
	late := 0
	for _, out := range s.outcome {
		if out == "late" {
			late++
		}
	}
	switch {
	case st.Subframes != released:
		return fmt.Errorf("%d subframes released, Stats counted %d", released, st.Subframes)
	case st.Decoded+st.DecodeFail+late+st.Dropped != st.Subframes:
		return fmt.Errorf("Decoded %d + DecodeFail %d + late %d + Dropped %d != %d subframes",
			st.Decoded, st.DecodeFail, late, st.Dropped, st.Subframes)
	case len(st.ProcUS) != st.Subframes-st.Dropped:
		return fmt.Errorf("%d processing times for %d processed subframes", len(st.ProcUS), st.Subframes-st.Dropped)
	case s.arrivals != released || s.finishes+s.drops != released || s.drops != st.Dropped:
		return fmt.Errorf("trace: %d arrivals, %d finishes, %d drops for %d released (Stats dropped %d)",
			s.arrivals, s.finishes, s.drops, released, st.Dropped)
	case s.phases != numStages*s.finishes || s.unexpected != 0:
		return fmt.Errorf("trace: %d stage events for %d finishes, %d unexpected events",
			s.phases, s.finishes, s.unexpected)
	}
	return nil
}

// livePass is one realtime.Run call and what its sink saw.
type livePass struct {
	st     *realtime.Stats
	sink   *liveSink
	setupS float64
	// gcPauseNS is the stop-the-world GC pause during the pass.
	gcPauseNS uint64
	// arenaMisses counts receivers the pass's arena had to build.
	arenaMisses int64
}

func gcPauseTotal() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs
}

func runLivePass(o opts, pass, subframes int, detailed bool) (livePass, error) {
	sink := newLiveSink(subframes, detailed)
	var reg *obs.Registry
	if detailed {
		reg = obs.NewRegistry()
	}
	// Every pass starts from the same heap. The previous pass's arena is a
	// sync.Pool, whose receivers outlive one collection in the pool's
	// victim cache; the second collection frees them.
	runtime.GC()
	runtime.GC()
	pause := gcPauseTotal()
	start := time.Now()
	st, err := realtime.Run(liveConfig(o, pass, subframes, sink, reg))
	if err != nil {
		return livePass{}, err
	}
	p := livePass{
		st:        st,
		sink:      sink,
		setupS:    sink.firstArrival.Sub(start).Seconds(),
		gcPauseNS: gcPauseTotal() - pause,
	}
	if reg != nil {
		p.arenaMisses = reg.Counter("rtopex_phy_arena_misses_total").Value()
	}
	return p, nil
}

// countLive counts a pass's subframes and records every failed one — a
// drop or a CRC failure — and any accounting that does not conserve.
func countLive(rep *report, p livePass, released int) {
	rep.attempted += int64(released)
	if err := checkLive(p.st, p.sink, released); err != nil {
		rep.violate("live cell: %v", err)
		return
	}
	if p.st.Dropped > 0 {
		rep.violate("live cell: %d of %d subframes dropped", p.st.Dropped, released)
		rep.failed += int64(p.st.Dropped - 1)
	}
	if p.st.DecodeFail > 0 {
		rep.violate("live cell: %d of %d subframes failed CRC", p.st.DecodeFail, released)
		rep.failed += int64(p.st.DecodeFail - 1)
	}
}

// runLive releases the live cell's subframes in livePasses realtime.Run
// calls. A traced run makes each call twice at half the length, once plain
// and once detailed, alternating which goes first: the plain calls see the
// same subframes, so their processing time is the reference for the
// tracing overhead.
func runLive(o opts) (*report, error) {
	n := liveSubframes(o)
	sides := []bool{false}
	if o.trace {
		n = max(1, n/2)
	}
	rep := newReport()
	var setups, latency, proc, plainProc []float64
	var detailed []livePass
	for i := 0; i < livePasses; i++ {
		if o.trace {
			sides = []bool{i%2 == 0, i%2 == 1}
		}
		for _, traced := range sides {
			p, err := runLivePass(o, i, n, traced)
			if err != nil {
				return nil, fmt.Errorf("live cell: %w", err)
			}
			countLive(rep, p, n)
			setups = append(setups, p.setupS)
			if traced {
				detailed = append(detailed, p)
				proc = append(proc, p.st.ProcUS...)
				continue
			}
			plainProc = append(plainProc, p.st.ProcUS...)
			for j, out := range p.sink.outcome {
				if out != "" {
					latency = append(latency, p.sink.finish[j]-p.sink.arrive[j])
				}
			}
		}
	}
	if !o.trace {
		rep.metrics["setup_s"] = median(setups)
		rep.metrics["latency_ms"] = median(latency) / 1e3
		// The worker's capacity at its median processing time. The mean
		// would follow the subframes that build a receiver in the arena,
		// whose number moves with when the GC runs.
		rep.metrics["subframes_per_s"] = 1e6 / median(plainProc)
		return rep, nil
	}

	var wait, lat, late []float64
	var stages [numStages][]float64
	var pauseNS uint64
	var arena int64
	released, missed, dropped := 0, 0, 0
	for _, p := range detailed {
		s := p.sink
		for j, out := range s.outcome {
			late = append(late, s.feederLate[j])
			if out == "" {
				continue // dropped
			}
			wait = append(wait, s.start[j]-s.arrive[j])
			lat = append(lat, s.finish[j]-s.arrive[j])
			for k := range liveStages {
				end := s.finish[j]
				if k+1 < numStages {
					end = s.stage[j][k+1]
				}
				stages[k] = append(stages[k], end-s.stage[j][k])
			}
		}
		released += p.st.Subframes
		missed += p.st.Missed
		dropped += p.st.Dropped
		pauseNS += p.gcPauseNS
		arena += p.arenaMisses
	}
	rep.metrics["realtime.wait_us_p50"] = median(wait)
	rep.metrics["realtime.proc_us_p50"] = median(proc)
	for k, st := range liveStages {
		rep.metrics[st.metric] = median(stages[k])
	}
	rep.metrics["realtime.latency_us_p99"] = quantile(lat, 0.99)
	rep.metrics["realtime.miss_rate"] = float64(missed+dropped) / float64(max(released, 1))
	rep.metrics["realtime.dropped"] = float64(dropped)
	rep.metrics["realtime.gc_pause_us"] = float64(pauseNS) / 1e3 / float64(max(released, 1))
	rep.metrics["realtime.feeder_late_us_p99"] = quantile(late, 0.99)
	rep.metrics["phy.arena.misses"] = float64(arena) / float64(max(len(detailed), 1))
	rep.metrics["bench.trace_overhead_frac"] = median(proc)/median(plainProc) - 1
	return rep, nil
}
