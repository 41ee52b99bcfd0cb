// Command perfbench is the repository benchmark: it runs one named
// workload against the simulator (experiment, cluster) or the tgd
// scheduler daemon, checks the workload's outputs, and prints its
// metrics. With -trace 0 it prints the end-to-end metrics; with -trace 1
// a separate traced run prints the per-layer metrics and a layer budget.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Usage (from the repository root; see perfbench/README.md):
//
//	bash perfbench/run.sh --workload fig4-sweep --seed 1 --seconds 35 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"tailguard/internal/parallel"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics every workload reports with tracing off. Each
// workload defines its unit of work (README.md, "End-to-end metrics").
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"tasks_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p98_ms", "ms"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics every traced run reports. A workload that
// bypasses a layer reports 0 for it (the layer did no work).
var perLayer = []metricSpec{
	{"experiment.build_ms", "ms"},
	{"experiment.maxload.probes", "count"},
	{"experiment.maxload.useful_ratio", "ratio"},
	{"parallel.busy_ratio", "ratio"},
	{"metrics.compliance_ms", "ms"},
	{"metrics.observe_ns", "ns"},
	{"cluster.run_ns_per_task", "ns"},
	{"cluster.residual_ns_per_task", "ns"},
	{"cluster.sharded.tasks_per_s", "1/s"},
	{"cluster.sharded.speedup", "ratio"},
	{"sim.event_ns", "ns"},
	{"policy.edf_ns", "ns"},
	{"core.budget_ns", "ns"},
	{"workload.next_ns", "ns"},
	{"workload.next_calls", "count"},
	{"dist.sample_ns", "ns"},
	{"dist.sample_calls", "count"},
	{"tgd.client_us", "us"},
	{"tgd.handler_us", "us"},
	{"tgd.inprocess.tasks_per_s", "1/s"},
	{"tgd.journal.tasks_per_s", "1/s"},
	{"tgd.claim.empty_ratio", "ratio"},
	{"tgd.claim_wait_ms", "ms"},
	{"tgd.turnaround_p99_ms", "ms"},
	{"tgd.deadline_miss_ratio", "ratio"},
	{"tgd.enqueue_p99_ms", "ms"},
	{"tgd.claim_p50_ms", "ms"},
	{"tgd.claim_p99_ms", "ms"},
	{"tgd.complete_p50_ms", "ms"},
	{"tgd.complete_p99_ms", "ms"},
	{"tgd.recovery_s", "s"},
	{"tgd.store.append_us", "us"},
	{"tgd.store.append_p99_us", "us"},
	{"tgd.store.bytes_per_task", "B"},
	{"tgd.replay_s", "s"},
	{"tgd.replay.records", "count"},
	{"json.decode_us", "us"},
	{"json.encode_us", "us"},
	{"runtime.allocs_per_task", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"gomaxprocs", "count"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	workDir string // scratch space inside the checkout (journals)
}

// roundSeed is the input seed of a run's round-th unit of work: the run's
// seed for the first, then seeds derived from it. Each unit measures
// fresh inputs, so a run's medians average over inputs as well as over
// time, while one seed still always gives the same inputs.
func roundSeed(seed int64, round int) int64 {
	if round == 0 {
		return seed
	}
	return parallel.DeriveSeed(seed, round)
}

// rounds is how many units of work a run measures: as many as fit in
// the requested seconds at the unit's nominal duration (its duration on
// the 2-vCPU machine the benchmark was defined on), and at least min.
// The count depends on the request, never on how fast this machine is
// now, so every run of one seed does the same work and reports the same
// percentiles of the same number of samples.
func (c runConfig) rounds(nominal time.Duration, min int) int {
	n := int(c.seconds/nominal.Seconds() + 0.5)
	if n < min {
		n = min
	}
	return n
}

// report collects one run's metrics, budget lines and failure tally.
type report struct {
	values map[string]float64
	notes  map[string]string
	budget []string // layer-budget printout lines
	tally
}

func newReport() *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}}
}

// set records a metric value with an optional human note (sample count,
// percentile actually reported, how it was derived).
func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

// setQ records a quantile metric in ms, noting its percentile and count.
func (r *report) setQ(name string, q quantile) {
	r.set(name, q.Value, fmt.Sprintf("p%.4g of n=%d", q.Pct, q.N))
}

// line adds a human-readable line to the layer-budget printout.
func (r *report) line(format string, args ...any) {
	r.budget = append(r.budget, fmt.Sprintf(format, args...))
}

// benchWorkload is one named benchmark workload; README.md records why
// each exists.
type benchWorkload struct {
	name string
	run  func(cfg runConfig, rep *report) error
}

var workloads = []benchWorkload{
	{"fig4-sweep", runFig4Sweep},
	{"sim-10k", runSim10k},
	{"tgd-mem", runTgdMem},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 35, "size of the measured phase: the units of work that take this long at nominal speed")
	traceFlag := fs.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload %s, -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}
	work, err := os.MkdirTemp(".", ".perfbench-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, workDir: work}

	rep := newReport()
	fmt.Fprintf(stdout, "== %s seed=%d seconds=%g trace=%v gomaxprocs=%d nproc=%d\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	if err := w.run(cfg, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.set("max_rss_mb", maxRSSMB(), "")
	rep.set("gomaxprocs", float64(runtime.GOMAXPROCS(0)), "")
	if cfg.trace {
		rep.set("runtime.gc_cpu_fraction", gcCPUFraction(), "")
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	return emit(stdout, stderr, w.name, specs, rep, cfg.trace)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints the human table, the layer budget and the final JSON line.
// It fails the run when a metric of specs is missing or any check failed.
func emit(stdout, stderr io.Writer, workload string, specs []metricSpec, rep *report, traced bool) int {
	res := jsonResult{Metrics: map[string]jsonMetric{}}
	missing := []string{}
	for _, s := range specs {
		if !validName(s.name) || !validUnit(s.unit) {
			fmt.Fprintf(stderr, "perfbench: bad metric name/unit %q %q\n", s.name, s.unit)
			return 1
		}
		v, ok := rep.values[s.name]
		if !ok {
			if !traced {
				missing = append(missing, s.name)
				continue
			}
			rep.notes[s.name] = "bypassed by " + workload
		}
		res.Metrics[s.name] = jsonMetric{Value: v, Unit: s.unit}
		fmt.Fprintf(stdout, "  %-34s %14.6g %-6s %s\n", s.name, v, s.unit, rep.notes[s.name])
	}
	// Figures measured in this run but not part of the reported set (the
	// per-operation tgd latencies of an untraced run) are printed too.
	extra := []string{}
	for k := range rep.values {
		if !inSpecs(specs, k) && !inSpecs(endToEnd, k) && !inSpecs(perLayer, k) {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(stdout, "  %-34s %14.6g        %s\n", k, rep.values[k], rep.notes[k])
	}
	if len(rep.budget) > 0 {
		fmt.Fprintln(stdout, "  -- layer budget --")
		for _, l := range rep.budget {
			fmt.Fprintln(stdout, "  "+l)
		}
	}
	if len(missing) > 0 {
		rep.fail(fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", ")))
	}
	if rep.attempted == 0 {
		rep.op(fmt.Errorf("no operation attempted"))
	}
	fmt.Fprintf(stdout, "  failed_ratio %.6g (%d of %d operations)\n", rep.ratio(), rep.failed, rep.attempted)
	res.Correct = rep.failed == 0
	res.Attempted, res.Failed = rep.attempted, rep.failed
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed; first: %v\n", workload, rep.failed, rep.attempted, rep.firstErr)
		return 1
	}
	return 0
}

func inSpecs(specs []metricSpec, name string) bool {
	for _, s := range specs {
		if s.name == name {
			return true
		}
	}
	return false
}

// settle collects the previous unit's garbage before the next one is
// timed, so no unit pays for another's.
func settle() { runtime.GC() }

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcCPUFraction is the share of the process's CPU time spent in GC.
func gcCPUFraction() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.GCCPUFraction
}
