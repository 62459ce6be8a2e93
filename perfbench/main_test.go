package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"

	"rtopex/internal/realtime"
)

var update = flag.Bool("update", false, "rewrite digests.json from the current simulator")

// smoke is a tiny-input run of every workload.
func smoke(trace bool) opts { return opts{seed: 1, seconds: 0.05, trace: trace, small: true} }

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := w.run(smoke(trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			res, err := result(rep, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d violations=%q",
					w.name, trace, res.Correct, res.Attempted, res.Failed, rep.violations)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v", w.name, trace, d.name, m)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

func TestCorruptedPayloadFailsRun(t *testing.T) {
	for _, trace := range []bool{false, true} {
		b, err := setupPHY(phyMCS27, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		b.subframes[1].payload[7] ^= 1
		rep := newReport()
		b.measure(rep, smoke(trace))
		if rep.correct() || rep.failed == 0 {
			t.Errorf("trace=%v: a corrupted payload passed (failed=%d of %d)", trace, rep.failed, rep.attempted)
		}
	}
}

func TestStageSumOutsideBoundFailsRun(t *testing.T) {
	for _, c := range []struct {
		ratio   float64
		samples int
		ok      bool
	}{
		{0.97, stageSumSamples, true},
		{0.5, stageSumSamples, false},
		{1.2, stageSumSamples, false},
		{0.5, stageSumSamples - 1, true},
	} {
		rep := newReport()
		checkStageSum(rep, c.ratio, c.samples)
		if rep.correct() != c.ok {
			t.Errorf("ratio %.2f over %d samples: correct=%v, want %v", c.ratio, c.samples, rep.correct(), c.ok)
		}
	}
}

func TestBrokenConservationFailsRun(t *testing.T) {
	w, err := buildJobSet(simSubframes(smoke(false)), 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := simulate(simGlobal, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := ""
	rep := newReport()
	checkPass(rep, p, w, &want)
	if !rep.correct() {
		t.Fatalf("an intact run failed: %q", rep.violations)
	}
	p.m.PerBS[3].ACK--
	if err := checkConservation(p.m, w); err == nil {
		t.Error("a lost job conserved")
	}
	p.m.PerBS[3].Jobs--
	checkPass(rep, p, w, &want)
	if rep.correct() || rep.failed != 1 {
		t.Errorf("a lost job passed: failed=%d violations=%q", rep.failed, rep.violations)
	}
}

func TestBrokenLiveAccountingFailsRun(t *testing.T) {
	const n = 4
	p, err := runLivePass(smoke(true), 0, n, true)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	countLive(rep, p, n)
	if !rep.correct() || rep.attempted != n {
		t.Fatalf("an intact pass failed: attempted=%d violations=%q", rep.attempted, rep.violations)
	}
	st, sink := *p.st, *p.sink
	for name, broken := range map[string]livePass{
		"a lost subframe":    {st: &realtime.Stats{Subframes: st.Subframes, Decoded: st.Decoded - 1, ProcUS: st.ProcUS}, sink: &sink},
		"a missing finish":   {st: &st, sink: &liveSink{arrivals: n, finishes: n - 1, phases: numStages * n, outcome: sink.outcome}},
		"a dropped subframe": {st: &realtime.Stats{Subframes: n, Decoded: n - 1, Dropped: 1, ProcUS: st.ProcUS[1:]}, sink: &liveSink{arrivals: n, finishes: n - 1, drops: 1, phases: numStages * (n - 1), outcome: sink.outcome}},
	} {
		rep := newReport()
		countLive(rep, broken, n)
		if rep.correct() || rep.failed != 1 {
			t.Errorf("%s passed: failed=%d violations=%q", name, rep.failed, rep.violations)
		}
	}
}

func TestWrongDigestFailsRun(t *testing.T) {
	o := smoke(false)
	o.digests = map[string]map[string]string{simPartitioned.name: {"1": "0123456789abcdef"}}
	rep, err := runSim(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.correct() {
		t.Error("a wrong digest passed")
	}
}

func TestReplayMatchesHook(t *testing.T) {
	w, err := buildJobSet(simSubframes(smoke(false)), 2)
	if err != nil {
		t.Fatal(err)
	}
	rec := &schedule{}
	if _, err := simulate(simRTOPEX, w, rec); err != nil {
		t.Fatal(err)
	}
	if r := rec.replay(); r.events != len(rec.steps) || r.mismatched {
		t.Fatalf("replay ran %d events (mismatch %v), hook saw %d", r.events, r.mismatched, len(rec.steps))
	}
	rec.now[len(rec.now)/2] += 1
	if r := rec.replay(); !r.mismatched {
		t.Error("replay did not notice a schedule that differs from the engine's")
	}
}

func TestFailedCheckExitsNonZero(t *testing.T) {
	saved := workloads
	defer func() { workloads = saved }()
	workloads = append(workloads, workload{"broken", func(opts) (*report, error) {
		rep := newReport()
		rep.attempted = 1
		rep.violate("deliberately wrong")
		for _, d := range endToEnd {
			rep.metrics[d.name] = 1
		}
		return rep, nil
	}})
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "broken", "--seconds", "1"}, &out, &errOut); code == 0 {
		t.Errorf("exit code 0 for a failed check")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if res.Correct || res.Failed != 1 {
		t.Errorf("result %+v", res)
	}
	if code := run([]string{"--workload", "nonesuch"}, &out, &errOut); code == 0 {
		t.Error("exit code 0 for an unknown workload")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ", "), workloadNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// digestSeeds are the seeds digests.json records.
const digestSeeds = 32

// TestRecordedDigests recomputes the recorded digests of a few seeds;
// -update rewrites digests.json for every recorded seed after an
// intentional change to simulator behaviour.
func TestRecordedDigests(t *testing.T) {
	n := simSubframes(opts{})
	seeds := digestSeeds
	if !*update {
		seeds = 2
		if testing.Short() {
			t.Skip("full-size simulations")
		}
	}
	recorded, err := recordedDigests()
	if err != nil {
		t.Fatal(err)
	}
	fresh := map[string]map[string]string{}
	for seed := uint64(0); seed < uint64(seeds); seed++ {
		w, err := buildJobSet(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range simSchedulers {
			p, err := simulate(spec, w, nil)
			if err != nil {
				t.Fatal(err)
			}
			if fresh[spec.name] == nil {
				fresh[spec.name] = map[string]string{}
			}
			key := strconv.FormatUint(seed, 10)
			fresh[spec.name][key] = digest(p.m)
			if !*update && recorded[spec.name][key] != fresh[spec.name][key] {
				t.Errorf("%s seed %d: digest %s, recorded %s", spec.name, seed,
					fresh[spec.name][key], recorded[spec.name][key])
			}
		}
	}
	if *update {
		out, err := json.MarshalIndent(fresh, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("digests.json", append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
