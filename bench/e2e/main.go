// Command e2e is the repository's one benchmark: six workloads that
// each run a user-visible operation end to end (particle file → grid,
// a resident service under overload, distributed field reconstruction),
// check every output against an oracle, and report the end-to-end
// metrics named in BENCHMARK.json — or, with -trace 1, the per-layer
// metrics measured by spans around the harness's own calls into each
// layer. See README.md for what each workload and metric is for.
//
//	bash bench/e2e/run.sh --workload batch_build --seed 1 --seconds 18 --trace 0
//	bash bench/e2e/run.sh -all -seed 1 -runs 5 -out A.json
//	bash bench/e2e/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// outDir is where scratch inputs and trace files go, relative to the
// working directory (the checkout root).
var outDir = filepath.Join("bench", "e2e", "out")

var verbose bool

// metricDef names a metric and its unit; BENCHMARK.json carries the same
// lists (the package test keeps them in step).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// workload is one entry of the suite.
type workload struct {
	name string
	op   string // what one operation is, for the report
	// procs is GOMAXPROCS for the run: 1 for the batch and rank workloads,
	// so wall = work; 2 for the serve workloads, so that the load generator
	// has a thread of its own and the kernel decides when it runs. The run
	// is pinned to one CPU either way (pinToOneCPU).
	procs int
	run   func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"batch_build", "catalog file → 64-column PGM grid (100k particles)", 1,
		func(e *env) (*outcome, error) { return runBatch(e, e.sz.buildN, e.sz.buildGrid, true) }},
	{"batch_march", "catalog file → 640-column PGM grid (12k particles)", 1,
		func(e *env) (*outcome, error) { return runBatch(e, e.sz.marchN, e.sz.marchGrid, false) }},
	{"serve_unique", "full-resolution checksum-correct response, unique windows, 4× overload", 2,
		func(e *env) (*outcome, error) { return runServe(e, serveUnique) }},
	{"serve_overlap", "full-resolution checksum-correct response, hot overlapping families, 4× overload", 2,
		func(e *env) (*outcome, error) { return runServe(e, serveOverlap) }},
	{"dist_fields", "field of one RunDistributed (4 ranks, FoF-centred fields)", 1, runDistFields},
	{"dist_grid", "catalog in memory → stitched 256² grid → PGM bytes (4 ranks)", 1, runDistGrid},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runWorkload executes one run in this process and builds its report.
func runWorkload(w *workload, seed int64, seconds float64, trace bool, sz sizes) (*report, *outcome, error) {
	runtime.GOMAXPROCS(w.procs)
	e, err := newEnv(w.name, seed, seconds, trace, sz)
	if err != nil {
		return nil, nil, err
	}
	defer e.cleanup()
	o, err := w.run(e)
	if err != nil {
		return nil, nil, err
	}
	if trace {
		if err := e.tr.write(filepath.Join(outDir, "trace-"+w.name+".jsonl")); err != nil {
			return nil, nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	rep := &report{Correct: o.failed == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]value{}}
	if trace {
		for _, m := range perLayer {
			rep.Metrics[m.name] = value{o.layer[m.name], m.unit}
		}
		for name := range o.layer {
			if _, ok := rep.Metrics[name]; !ok {
				return nil, nil, fmt.Errorf("workload %s set undeclared metric %q", w.name, name)
			}
		}
		return rep, o, nil
	}
	// Each block yields a latency and a rate, both stated at the reference
	// host's speed (see hostRef); the run reports their medians over blocks.
	if verbose {
		for _, s := range []struct {
			name string
			v    []float64
		}{{"block op ms (wall)", o.rawOpMs}, {"block op ms", o.blockOpMs}, {"block ops/s", o.blockRate}, {"block peak rss MB", e.rssPeaks}} {
			q1, q3 := quartiles(s.v)
			fmt.Fprintf(os.Stderr, "%s: q1 %.3f median %.3f q3 %.3f  %.3f\n", s.name, q1, median(s.v), q3, s.v)
		}
	}
	rss := median(e.rssPeaks)
	if len(e.rssPeaks) == 0 {
		rss = peakRSSMB()
	}
	var setups []float64
	for i, wall := range e.setupWall {
		setups = append(setups, wall*e.host.over(e.setupAt[i][0], e.setupAt[i][1]))
	}
	vals := []float64{median(setups), median(o.blockOpMs), median(o.blockRate), rss}
	for i, m := range endToEnd {
		rep.Metrics[m.name] = value{vals[i], m.unit}
	}
	return rep, o, nil
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == "-hostref" {
		hostRefMain()
		return
	}
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "seed for every generated input")
		seconds = flag.Float64("seconds", 18, "timed window per run (BENCHMARK.json's run_seconds)")
		trace   = flag.Int("trace", 0, "1: record spans and report the per-layer metrics")
		all     = flag.Bool("all", false, "run every workload (one process each) and print a summary")
		runs    = flag.Int("runs", 1, "with -all: runs per workload; medians and quartiles are over runs")
		out     = flag.String("out", "", "with -all: also write the samples as JSON, for -compare")
		compare = flag.Bool("compare", false, "compare two -out files: -compare A.json B.json")
	)
	flag.BoolVar(&verbose, "v", false, "print every block and reference-kernel time to standard error")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare A.json B.json")
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1)); err != nil {
			fatal("%v", err)
		}
	case *all:
		if err := runAll(*seed, *seconds, *trace == 1, *runs, *out); err != nil {
			fatal("%v", err)
		}
	default:
		w := findWorkload(*name)
		if w == nil {
			fatal("unknown workload %q", *name)
		}
		pinToOneCPU()
		rep, o, err := runWorkload(w, *seed, *seconds, *trace == 1, fullSizes)
		if err != nil {
			fatal("%s: %v", w.name, err)
		}
		for _, p := range o.problems {
			fmt.Fprintf(os.Stderr, "%s: %s\n", w.name, p)
		}
		fmt.Fprintf(os.Stderr, "%s: %d operations (%s), %d failed, op samples %d, blocks %d, wall op %.3f ms, reference kernel %.1f us (nominal %.1f), its spread %.3f\n",
			w.name, rep.Attempted, w.op, rep.Failed, max(len(o.opMs), len(o.blockRate)), len(o.blockRate), o.layer["harness.raw_op_ms"], o.layer["host.ref_us"], 1e6*refNominal, o.layer["host.ref_spread"])
		line, err := json.Marshal(rep)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(line))
		if !rep.Correct {
			os.Exit(1)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2e: "+format+"\n", args...)
	os.Exit(2)
}
