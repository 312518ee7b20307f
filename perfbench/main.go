// Command perfbench is the repository's wall-clock benchmark. It runs
// one named workload for a fixed time, checks the program's outputs,
// and prints, as the last line of standard output, one JSON object
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// taken from in-memory spans (--trace 1).
//
//	bash perfbench/run.sh --workload cold-grid --seed 1 --seconds 25 --trace 0
//
// Workloads: cold-grid, cold-barabasi, cold-serial, service-faults.
// See README.md in this directory for what each metric means and
// which module it belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// workers is the parallel engine's shard count. It is fixed rather
// than taken from NumCPU because the parallel trace is a function of
// (snapshot, seed, workers).
const workers = 2

type metricDef struct{ name, unit string }

// endToEnd and perLayer list every metric the benchmark reports, in
// the order of BENCHMARK.json. Every run prints every metric of its
// mode; a per-layer metric whose layer the workload does not exercise
// reads 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"stabilize_s", "s"},
	{"live_heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"graph.build_ms", "ms"},
	{"spantree.new_ms", "ms"},
	{"token.new_ms", "ms"},
	{"core.new_ms", "ms"},
	{"core.randomize_ms", "ms"},
	{"program.new_ms", "ms"},
	{"program.init_ms", "ms"},
	{"program.frontier", "count"},
	{"program.boundary_share", "ratio"},
	{"program.shard_imbalance", "ratio"},
	{"program.step_ms", "ms"},
	{"program.step_ms_per_step", "ms"},
	{"program.steps", "count"},
	{"program.rounds", "count"},
	{"program.moves", "count"},
	{"program.moves_per_s", "1/s"},
	{"program.work_units", "count"},
	{"program.span_units", "count"},
	{"program.legit_ms", "ms"},
	{"program.legit_calls", "count"},
	{"program.alloc_mb", "MB"},
	{"program.allocs_per_step", "count"},
	{"program.moves_per_corrupt", "count"},
	{"program.moves_per_flap", "count"},
	{"program.frontier_rebuilds", "count"},
	{"program.reclass_skips", "count"},
	{"program.moves_per_rejoin", "count"},
	{"failover.isolate_ms", "ms"},
	{"failover.leader_flaps_per_rejoin", "count"},
	{"orientd.corrupt_ack_ms", "ms"},
	{"orientd.flap_ack_ms", "ms"},
	{"orientd.cut_ack_ms", "ms"},
	{"orientd.heal_ack_ms", "ms"},
	{"orientd.status_ms", "ms"},
	{"orientd.legitimacy_ms", "ms"},
	{"orientd.orientation_ms", "ms"},
	{"orientd.orientation_bytes", "bytes"},
	{"orientd.polls_per_recovery", "count"},
	{"orientd.rejoin_ms", "ms"},
	{"orientd.query_ms", "ms"},
	{"orientd.query_ms_p99", "ms"},
	{"recover_corrupt_ms", "ms"},
	{"recover_corrupt_ms_p90", "ms"},
	{"recover_flap_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	small    bool   // reduced graph sizes, for the package's own tests
	spansDir string // where the traced run writes its spans
}

// outcome is what a workload hands back: metric values by name, the
// sample count behind each, operation counts and check failures.
type outcome struct {
	metrics   map[string]float64
	counts    map[string]int // samples behind each median/percentile
	attempted int
	failed    int
	checkErrs []string
	meta      map[string]any
	self      map[string]time.Duration
	spansPath string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, counts: map[string]int{}, meta: map[string]any{}}
}

// set records a metric and the number of samples it summarizes.
func (o *outcome) set(name string, v float64, n int) {
	o.metrics[name] = v
	o.counts[name] = n
}

func (o *outcome) checkFail(format string, a ...any) {
	o.failed++
	o.checkErrs = append(o.checkErrs, fmt.Sprintf(format, a...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report builds the final JSON object for the run's mode.
func (o *outcome) report(trace bool) result {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r := result{
		Correct:   o.failed == 0 && len(o.checkErrs) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: o.metrics[d.name], Unit: d.unit}
	}
	return r
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"cold-grid", "cold-barabasi", "cold-serial", "service-faults"}

// run executes one workload and returns its outcome.
func run(opt options) (*outcome, error) {
	o := newOutcome()
	o.meta["workload"] = opt.workload
	o.meta["seed"] = opt.seed
	o.meta["workers"] = workers
	o.meta["nproc"] = runtime.NumCPU()
	o.meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	o.meta["go"] = runtime.Version()
	o.meta["trace"] = opt.trace
	var err error
	if w, ok := coldWorkloads[opt.workload]; ok {
		err = w.run(opt, o)
	} else if opt.workload == "service-faults" {
		err = runService(opt, o)
	} else {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", opt.workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	if o.attempted == 0 {
		return nil, fmt.Errorf("%s: no operation attempted in %.1fs", opt.workload, opt.seconds)
	}
	return o, nil
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload: "+fmt.Sprint(workloadNames))
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed; every graph, randomization, engine and fault seed derives from it")
	flag.Float64Var(&opt.seconds, "seconds", 25, "measurement time in seconds (after one warm-up trial)")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&opt.spansDir, "spans", "", "directory for the traced run's span file (empty: do not write)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	opt.trace = trace == 1
	o, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printLog(os.Stdout, opt, o)
	res := o.report(opt.trace)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		for _, e := range o.checkErrs {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
		}
		os.Exit(1)
	}
}

// printLog writes the run metadata, the sample count behind every
// reported metric and, for a traced run, the self-time table.
func printLog(f *os.File, opt options, o *outcome) {
	meta, _ := json.Marshal(map[string]any{"meta": o.meta})
	fmt.Fprintln(f, string(meta))
	line, _ := json.Marshal(map[string]any{"samples": o.counts})
	fmt.Fprintln(f, string(line))
	if opt.trace {
		self, _ := json.Marshal(map[string]any{"self_time": selfTable(o.self), "spans_file": o.spansPath})
		fmt.Fprintln(f, string(self))
	}
}

// derive mixes the workload seed with a tag and an index (splitmix64),
// so every graph, randomization, engine and fault seed is a function
// of the one --seed argument.
func derive(seed int64, tag string, i int) int64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15*uint64(i+1)
	for _, c := range tag {
		x = (x ^ uint64(c)) * 0x100000001b3
	}
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x & (1<<62 - 1))
}

// heapMB forces a collection and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
