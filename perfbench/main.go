// Command perfbench is the repository's benchmark. It drives each layer of
// the system through its public entry points — the PHY receive chain
// (phy.Receiver), the discrete-event simulator (sched on platform) and the
// live wall-clock loop (realtime) — on one named workload, checks that
// every output is correct, and prints the metrics by name with their units.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload phy-mcs27 --seed 1 --seconds 10 --trace 0
//
// --trace 0 is the untraced run and reports the end-to-end metrics;
// --trace 1 is a separate traced run reporting the per-layer metrics. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. A run whose outputs are wrong prints
// correct=false and exits 1; a run that cannot execute prints no result and
// exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_ms", "ms"},
	{"subframes_per_s", "1/s"},
	{"rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, named by module. Every traced
// run reports all of them; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"fft.us", "us"},
	{"fft.ns_per_symbol", "ns"},
	{"chest.us", "us"},
	{"modulation.demod.us", "us"},
	{"turbo.decode.us", "us"},
	{"turbo.iterations_mean", "count"},
	{"turbo.code_blocks", "count"},
	{"phy.glue.us", "us"},
	{"phy.stage_sum_ratio", "ratio"},
	{"phy.allocs_per_subframe", "count"},
	{"phy.subframe_us_p50", "us"},
	{"phy.subframe_us_p99", "us"},
	{"phy.subframe_samples", "count"},
	{"phy.gc_cycles", "count"},
	{"platform.events", "count"},
	{"platform.replay_ns_per_event", "ns"},
	{"sched.rtopex.sf_per_s", "1/s"},
	{"sched.rtopex.events_per_subframe", "count"},
	{"sched.rtopex.ns_per_event", "ns"},
	{"sched.rtopex.self_ns_per_event", "ns"},
	{"sched.rtopex.allocs_per_subframe", "count"},
	{"sched.rtopex.gc_cycles", "count"},
	{"sched.rtopex.miss_rate", "ratio"},
	{"sched.rtopex.migration_batches", "count"},
	{"sched.rtopex.migrated_fft_frac", "ratio"},
	{"sched.rtopex.migrated_decode_frac", "ratio"},
	{"sched.global.sf_per_s", "1/s"},
	{"sched.global.events_per_subframe", "count"},
	{"sched.global.ns_per_event", "ns"},
	{"sched.global.self_ns_per_event", "ns"},
	{"sched.global.allocs_per_subframe", "count"},
	{"sched.global.gc_cycles", "count"},
	{"sched.global.miss_rate", "ratio"},
	{"sched.partitioned.sf_per_s", "1/s"},
	{"sched.partitioned.events_per_subframe", "count"},
	{"sched.partitioned.ns_per_event", "ns"},
	{"sched.partitioned.self_ns_per_event", "ns"},
	{"sched.partitioned.allocs_per_subframe", "count"},
	{"sched.partitioned.gc_cycles", "count"},
	{"sched.partitioned.miss_rate", "ratio"},
	{"sched.build_s", "s"},
	{"realtime.wait_us_p50", "us"},
	{"realtime.proc_us_p50", "us"},
	{"realtime.stage.fft.us_p50", "us"},
	{"realtime.stage.chest.us_p50", "us"},
	{"realtime.stage.demod.us_p50", "us"},
	{"realtime.stage.decode.us_p50", "us"},
	{"realtime.latency_us_p99", "us"},
	{"realtime.miss_rate", "ratio"},
	{"realtime.dropped", "count"},
	{"realtime.gc_pause_us", "us"},
	{"realtime.feeder_late_us_p99", "us"},
	{"phy.arena.misses", "count"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.error_rate", "ratio"},
}

// opts are the inputs of one run.
type opts struct {
	seed    uint64
	seconds float64
	trace   bool
	// small shrinks every input to a smoke-test size (the package's tests).
	small bool
	// digests overrides the recorded simulation digests (nil: the embedded
	// table).
	digests map[string]map[string]string
}

// report is what a workload run produces.
type report struct {
	attempted, failed int64
	// violations are failed correctness checks; any one fails the run.
	violations []string
	metrics    map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// violate records a failed correctness check, which also counts as a
// failed operation.
func (r *report) violate(format string, args ...any) {
	r.failed++
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return len(r.violations) == 0 }

// workload is one named set of inputs and the loop that drives them.
type workload struct {
	name string
	run  func(o opts) (*report, error)
}

var workloads = []workload{
	{"phy-mcs27", func(o opts) (*report, error) { return runPHY(phyMCS27, o) }},
	{"phy-4ant-mcs5", func(o opts) (*report, error) { return runPHY(phy4AntMCS5, o) }},
	{"sim-cells", runSim},
	{"live-cell", runLive},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// result selects the mode's metric set from rep, adding the process's peak
// RSS to an untraced run's. An end-to-end metric a workload failed to
// produce is a bug in the benchmark; a per-layer metric a workload does not
// exercise reads 0.
func result(rep *report, trace bool) (jsonResult, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
		rep.metrics["bench.error_rate"] = float64(rep.failed) / float64(max(rep.attempted, 1))
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return jsonResult{}, err
		}
		rep.metrics["rss_mb"] = rss
	}
	out := jsonResult{
		Correct:   rep.correct(),
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok && !trace {
			return out, fmt.Errorf("perfbench: workload reported no %s", d.name)
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	if rep.attempted < 1 {
		return out, fmt.Errorf("perfbench: no operation attempted")
	}
	return out, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long the measured part of the run lasts")
	traceMode := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *traceMode == 1}
	rep, err := w.run(o)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	res, err := result(rep, o.trace)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for _, v := range rep.violations {
		fmt.Fprintln(stdout, "CHECK FAILED:", v)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%s seed=%d trace=%v attempted=%d failed=%d\n", w.name, o.seed, o.trace, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
