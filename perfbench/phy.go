package main

import (
	"bytes"
	"fmt"
	"time"

	"rtopex/internal/bits"
	"rtopex/internal/channel"
	"rtopex/internal/lte"
	"rtopex/internal/phy"
	"rtopex/internal/stats"
)

// phySpec is one closed-loop PHY workload: a single caller runs
// Receiver.Process serially over a rotating set of pre-generated subframes.
type phySpec struct {
	mcs, antennas int
	snrDB         float64
}

var (
	// phyMCS27 is the paper's worst-case subframe at an SNR above the turbo
	// waterfall where decoding still takes more than one iteration, so
	// decode is the largest stage.
	phyMCS27 = phySpec{mcs: 27, antennas: 2, snrDB: 16}
	// phy4AntMCS5 loads the front end instead: four antennas of FFT and
	// demod, one quickly decoded code block.
	phy4AntMCS5 = phySpec{mcs: 5, antennas: 4, snrDB: 30}
)

// phyPool is how many distinct subframes a run rotates through: enough
// that the turbo iteration mix of one seed is close to another's.
func phyPool(o opts) int {
	if o.small {
		return 2
	}
	return 48
}

// decodeBatchAll exceeds any LTE code-block count, so every block of a
// subframe decodes in one batch.
const decodeBatchAll = 1 << 10

// phySubframe is one received subframe and the payload it must decode to.
type phySubframe struct {
	payload []byte
	iq      [][]complex128
	n0      float64
}

type phyBench struct {
	spec      phySpec
	rx        *phy.Receiver
	subframes []phySubframe
}

// setupPHY encodes n random transport blocks, passes each through its own
// AWGN channel draw, and builds the receiver, decoding one subframe so any
// lazy set-up finishes before timing.
func setupPHY(spec phySpec, n int, seed uint64) (*phyBench, error) {
	// All code blocks decode as one turbo.Batch, as phy.Config recommends
	// for a serial Process and as realtime selects for a one-worker core.
	cfg := phy.Config{Bandwidth: lte.BW10MHz, MCS: spec.mcs, Antennas: spec.antennas, RNTI: 1, CellID: 1,
		DecodeBatch: decodeBatchAll}
	tx, err := phy.NewTransmitter(cfg)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	b := &phyBench{spec: spec, subframes: make([]phySubframe, n)}
	for i := range b.subframes {
		payload := make([]byte, tx.TBS())
		bits.RandomBits(payload, rng.Uint64)
		wave, err := tx.Transmit(payload)
		if err != nil {
			return nil, err
		}
		ch, err := channel.New(spec.snrDB, spec.antennas, rng.Uint64())
		if err != nil {
			return nil, err
		}
		iq, _ := ch.Apply(wave)
		b.subframes[i] = phySubframe{payload: payload, iq: iq, n0: ch.N0()}
	}
	if b.rx, err = phy.NewReceiver(cfg); err != nil {
		return nil, err
	}
	if _, err := b.rx.Process(b.subframes[0].iq, b.subframes[0].n0); err != nil {
		return nil, err
	}
	return b, nil
}

// check counts one decode and records it as failed when the transport block
// did not decode to exactly the transmitted payload.
func (b *phyBench) check(rep *report, i int, res phy.Result, err error) {
	rep.attempted++
	switch {
	case err != nil:
		rep.violate("subframe %d: %v", i, err)
	case !res.OK:
		rep.violate("subframe %d: CRC failed", i)
	case !bytes.Equal(res.Payload, b.subframes[i].payload):
		rep.violate("subframe %d: payload differs from the transmitted one", i)
	}
}

func runPHY(spec phySpec, o opts) (*report, error) {
	b, setupS, err := repeatSetup(func() (*phyBench, error) { return setupPHY(spec, phyPool(o), o.seed) })
	if err != nil {
		return nil, fmt.Errorf("phy set-up: %w", err)
	}
	rep := newReport()
	b.measure(rep, o)
	if !o.trace {
		rep.metrics["setup_s"] = setupS
	}
	return rep, nil
}

// rateWindows is how many equal windows a run's throughput is measured
// over; their median rate is robust to a stall in one of them.
const rateWindows = 20

// measure runs the closed loop for o.seconds: one caller, one subframe at a
// time through Receiver.Process, checking every decoded payload.
func (b *phyBench) measure(rep *report, o opts) {
	if o.trace {
		b.traced(rep, o)
		return
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	window := dur / rateWindows
	var lat, rates []float64
	start := time.Now()
	wStart, wCount := start, 0
	for i := 0; time.Since(start) < dur; i++ {
		k := i % len(b.subframes)
		sf := &b.subframes[k]
		t0 := time.Now()
		res, err := b.rx.Process(sf.iq, sf.n0)
		t1 := time.Now()
		lat = append(lat, us(t1.Sub(t0)))
		b.check(rep, k, res, err)
		if wCount++; t1.Sub(wStart) >= window {
			rates = append(rates, float64(wCount)/t1.Sub(wStart).Seconds())
			wStart, wCount = t1, 0
		}
	}
	// The 90th percentile, not the median: on a shared host the calls fall
	// into two speed modes 1.4–1.7x apart, and the median flips between
	// them as their mix shifts from minute to minute. Most calls fall in the
	// slow mode, so the 90th percentile stays within it.
	rep.metrics["latency_ms"] = quantile(lat, 0.9) / 1e3
	rep.metrics["subframes_per_s"] = median(rates)
}

// stageMetric maps a receive-chain stage onto its per-layer metric.
var stageMetric = map[phy.TaskName]string{
	phy.TaskFFT:    "fft.us",
	phy.TaskChEst:  "chest.us",
	phy.TaskDemod:  "modulation.demod.us",
	phy.TaskDecode: "turbo.decode.us",
}

// traced interleaves untraced Process calls with traced walks of the same
// subframes through Receiver.Pipeline, timing each stage's subtasks. The
// untraced calls give the reference the stage times must add up to; the
// traced walks' own total gives the tracing overhead.
func (b *phyBench) traced(rep *report, o opts) {
	// Allocation count of the steady-state hot path, outside timing.
	const allocWindow = 8
	before := readMem()
	for i := 0; i < allocWindow; i++ {
		sf := &b.subframes[i%len(b.subframes)]
		res, err := b.rx.Process(sf.iq, sf.n0)
		b.check(rep, i%len(b.subframes), res, err)
	}
	allocs := readMem().since(before).mallocs

	dur := time.Duration(o.seconds * float64(time.Second))
	var plain, walked []float64
	stageUS := map[phy.TaskName]float64{}
	iters, blocks := 0, 0
	gc := readMem()
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		k := i % len(b.subframes)
		sf := &b.subframes[k]
		untraced := func() {
			t0 := time.Now()
			res, err := b.rx.Process(sf.iq, sf.n0)
			plain = append(plain, us(time.Since(t0)))
			b.check(rep, k, res, err)
			for _, it := range res.BlockIterations {
				iters += it
				blocks++
			}
		}
		// Alternate which side runs first so cache warmth favours neither.
		if i%2 == 0 {
			untraced()
		}
		t0 := time.Now()
		stages, err := b.rx.Pipeline(sf.iq, sf.n0)
		var res phy.Result
		if err == nil {
			for _, st := range stages {
				s0 := time.Now()
				for _, sub := range st.Subtasks {
					sub()
				}
				stageUS[st.Name] += us(time.Since(s0))
			}
			res = b.rx.Result()
		}
		walked = append(walked, us(time.Since(t0)))
		b.check(rep, k, res, err)
		if i%2 == 1 {
			untraced()
		}
	}
	gcCycles := readMem().since(gc).numGC

	n := float64(len(walked))
	var stageSum float64
	for name, total := range stageUS {
		rep.metrics[stageMetric[name]] = total / n
		stageSum += total / n
	}
	plainMean := mean(plain)
	ratio := stageSum / plainMean
	rep.metrics["fft.ns_per_symbol"] = rep.metrics["fft.us"] * 1e3 / float64(b.spec.antennas*lte.SymbolsPerSubframe)
	rep.metrics["turbo.iterations_mean"] = float64(iters) / float64(max(blocks, 1))
	rep.metrics["turbo.code_blocks"] = float64(b.rx.CodeBlocks())
	rep.metrics["phy.glue.us"] = plainMean - stageSum
	rep.metrics["phy.stage_sum_ratio"] = ratio
	rep.metrics["phy.allocs_per_subframe"] = float64(allocs) / allocWindow
	rep.metrics["phy.subframe_samples"] = float64(len(plain))
	rep.metrics["phy.subframe_us_p50"] = median(plain)
	rep.metrics["phy.subframe_us_p99"] = quantile(plain, 0.99)
	rep.metrics["phy.gc_cycles"] = float64(gcCycles)
	rep.metrics["bench.trace_overhead_frac"] = mean(walked)/plainMean - 1
	checkStageSum(rep, ratio, len(plain))
}

// The stage-sum reconciliation bound: the traced stages must account for
// this share of an untraced Process call. Below it, work happens outside
// any stage (glue has grown); above it, the stage timing costs more than
// the work it measures. The check needs stageSumSamples calls of each kind,
// since a few calls on a shared host say nothing about the ratio.
const (
	stageSumMin     = 0.85
	stageSumMax     = 1.10
	stageSumSamples = 200
)

func checkStageSum(rep *report, ratio float64, samples int) {
	if samples >= stageSumSamples && (ratio < stageSumMin || ratio > stageSumMax) {
		rep.violate("stage times sum to %.3f of the untraced Process time, outside [%.2f, %.2f]",
			ratio, stageSumMin, stageSumMax)
	}
}
