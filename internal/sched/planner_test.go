package sched

import (
	"math"
	"slices"
	"testing"

	"rtopex/internal/stats"
)

// closedFormNextPreemption is predictedNextPreemption without its per-core
// cache: the closed form the cache must reproduce bit for bit.
func closedFormNextPreemption(r *RTOPEX, k *rcore, now float64) float64 {
	c := float64(r.CoresPerBS)
	first := float64(k.slot)*1000 + r.env.ExpectedRTT2
	t := first
	if now >= first {
		m := math.Ceil((now - first) / (1000 * c))
		t = first + m*1000*c
		if t <= now {
			t += 1000 * c
		}
	}
	idx := k.slot + int((t-first)/1000+0.5)
	if idx >= r.env.SubframesPerBS {
		return math.Inf(1)
	}
	return t
}

// TestCachedPreemptionMatchesClosedForm queries every slot's core along
// random nondecreasing clocks, as planTask does, and requires the cached
// prediction to equal the closed form bit for bit. The clocks step through
// the expected arrivals themselves and the floats next to them, where a
// cache that assumed exact arithmetic would go wrong, and run past the end
// of the trace into the +Inf region. With E[RTT/2] = 400.137 and two cores
// per cell, the closed form at now = 2400.137 (slot 0's second expected
// arrival) rounds its quotient above 1 and answers 4400.137, where
// 2400.137 + 2000 would give 4400.137000000001.
func TestCachedPreemptionMatchesClosedForm(t *testing.T) {
	const subframes = 40
	for _, rtt2 := range []float64{500, 433.3, 400.137} {
		for cpb := 1; cpb <= 3; cpb++ {
			for seed := uint64(1); seed <= 5; seed++ {
				r := NewRTOPEX(cpb)
				r.env = &Env{ExpectedRTT2: rtt2, SubframesPerBS: subframes}
				cores := make([]*rcore, cpb)
				for s := range cores {
					cores[s] = &rcore{id: s, slot: s}
				}
				checked, inf := 0, 0
				for _, now := range preemptionClock(stats.NewRNG(seed), r, cores, subframes) {
					for _, k := range cores {
						got := r.predictedNextPreemption(k, now)
						want := closedFormNextPreemption(r, k, now)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("rtt2 %v, %d cores/BS, slot %d, now %v (%#x): cached %v, closed form %v",
								rtt2, cpb, k.slot, now, math.Float64bits(now), got, want)
						}
						checked++
						if math.IsInf(got, 1) {
							inf++
						}
					}
				}
				if inf == 0 || inf == checked {
					t.Fatalf("rtt2 %v, %d cores/BS: %d of %d predictions +Inf; the clock misses the trace's end",
						rtt2, cpb, inf, checked)
				}
			}
		}
	}
}

// preemptionClock returns a nondecreasing sequence of query times: every
// expected arrival of every core, the float on either side of it, the
// arrival times a transport of exactly E[RTT/2] produces (computed another
// way, so they can sit an ulp off the prediction), and random times
// between, some repeated.
func preemptionClock(rng *stats.RNG, r *RTOPEX, cores []*rcore, subframes int) []float64 {
	var clock []float64
	period := 1000 * float64(r.CoresPerBS)
	for _, k := range cores {
		first := float64(k.slot)*1000 + r.env.ExpectedRTT2
		for m := 0.0; m*period < float64(subframes+4)*1000; m++ {
			t := first + m*1000*float64(r.CoresPerBS)
			clock = append(clock, t, math.Nextafter(t, math.Inf(-1)), math.Nextafter(t, math.Inf(1)))
		}
	}
	for j := 0; j < subframes+4; j++ {
		clock = append(clock, float64(j)*1000+r.env.ExpectedRTT2)
	}
	end := float64(subframes+4) * 1000
	for i := 0; i < 4*subframes; i++ {
		now := rng.Float64() * end
		clock = append(clock, now)
		if rng.Intn(4) == 0 {
			clock = append(clock, now)
		}
	}
	clock = append(clock, -1, 0)
	slices.Sort(clock)
	return clock
}

// TestAlgorithm1IntoMatchesAlgorithm1 runs the Algorithm 1 cases of
// alg1_test.go, plus random ones, through algorithm1Into with scratch left
// dirty by the previous call: it must return what Algorithm1 returns.
func TestAlgorithm1IntoMatchesAlgorithm1(t *testing.T) {
	type input struct {
		p                      int
		tp, delta              float64
		perSubtaskDelta, greed bool
		free                   []float64
	}
	cases := []input{
		{28, 4, 20, false, false, []float64{10000}},
		{6, 175, 20, false, false, []float64{10000}},
		{6, 175, 20, false, false, []float64{400}},
		{6, 175, 20, false, false, []float64{15}},
		{6, 175, 20, true, false, []float64{400}},
		{28, 4, 20, true, false, []float64{100}},
		{12, 100, 0, false, false, []float64{10000, 10000}},
		{12, 100, 0, false, false, []float64{320, 10000}},
		{12, 100, 0, false, true, []float64{10000}},
		{1, 100, 20, false, false, []float64{1000}},
		{0, 100, 20, false, false, []float64{1000}},
		{10, 0, 20, false, false, []float64{1000}},
		{10, 100, 20, false, false, nil},
		{4, 10, 0, false, false, []float64{1000, 1000, 1000, 1000}},
	}
	r := stats.NewRNG(1)
	for i := 0; i < 500; i++ {
		free := make([]float64, r.Intn(8))
		for k := range free {
			free[k] = r.Float64() * 1500
		}
		cases = append(cases, input{r.Intn(30), r.Float64() * 200, r.Float64() * 40,
			r.Intn(2) == 0, r.Intn(4) == 0, free})
	}
	scratch := []int{7, -3, 99, 1 << 20, 5, 5, 5, 5, 5}
	for i, c := range cases {
		want := Algorithm1(c.p, c.tp, c.delta, c.perSubtaskDelta, c.greed, c.free)
		got := algorithm1Into(scratch, c.p, c.tp, c.delta, c.perSubtaskDelta, c.greed, c.free)
		if !slices.Equal(got, want) {
			t.Fatalf("case %d %+v: algorithm1Into %v, Algorithm1 %v", i, c, got, want)
		}
		// Leave the scratch dirty for the next case.
		scratch = got[:cap(got)]
		for k := range scratch {
			scratch[k] = 1000 + i + k
		}
	}
}
