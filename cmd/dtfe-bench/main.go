// Command dtfe-bench is the benchmark regression harness: it runs the
// repo's hot-path benchmarks (`go test -bench`), parses the standard
// benchmark output, and writes a machine-readable report next to the
// checked-in pre-optimization baseline, including baseline-vs-current
// speedup ratios. CI and PR review read the report instead of eyeballing
// bench logs.
//
// Usage:
//
//	dtfe-bench [-out BENCH_PR10.json] [-baseline bench/baseline_pr10.json]
//	           [-bench REGEX] [-benchtime 2s] [-count 1] [-label NAME]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// BenchResult is one benchmark's measured numbers. When the same benchmark
// runs multiple times (-count > 1) the fastest run is kept, the
// conventional choice for regression tracking (least scheduler noise).
type BenchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Report is the file schema shared by the checked-in baseline and the
// generated report.
type Report struct {
	Label  string `json:"label"`
	Commit string `json:"commit,omitempty"`
	Host   string `json:"host,omitempty"`
	Go     string `json:"go,omitempty"`
	// GoMaxProcs/NumCPU record the parallelism available to the run:
	// the /parN sub-benchmarks are meaningless without knowing how many
	// cores they actually had.
	GoMaxProcs int                     `json:"gomaxprocs,omitempty"`
	NumCPU     int                     `json:"numcpu,omitempty"`
	Benchmarks map[string]*BenchResult `json:"benchmarks"`

	// Baseline carries the comparison baseline verbatim, and Speedup the
	// baseline/current ns-per-op ratio per benchmark (>1 means faster now).
	Baseline *Report            `json:"baseline,omitempty"`
	Speedup  map[string]float64 `json:"speedup_vs_baseline,omitempty"`
}

// benchLine matches standard `go test -bench` output with -benchmem, e.g.
// BenchmarkKernelMarching-8  144  16861172 ns/op  33168 B/op  10 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+[\d.]+ MB/s)?(?:\s+([\d.]+) B/op\s+([\d.]+) allocs/op)?`)

func parseBench(out []byte) map[string]*BenchResult {
	res := make(map[string]*BenchResult)
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, _ := strconv.ParseFloat(m[2], 64)
		r := &BenchResult{NsPerOp: ns}
		if m[3] != "" {
			r.BytesPerOp, _ = strconv.ParseFloat(m[3], 64)
			r.AllocsPerOp, _ = strconv.ParseFloat(m[4], 64)
		}
		if prev, ok := res[m[1]]; !ok || ns < prev.NsPerOp {
			res[m[1]] = r
		}
	}
	return res
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var (
		out       = flag.String("out", "BENCH_PR10.json", "report output path")
		baseline  = flag.String("baseline", "bench/baseline_pr10.json", "baseline report to compare against (empty to skip)")
		benchRe   = flag.String("bench", "BenchmarkKernel|BenchmarkEntry|BenchmarkCodec|BenchmarkDelaunayBuild|BenchmarkCompact|BenchmarkHilbertKey|BenchmarkPredicate|BenchmarkDistRender|BenchmarkFieldServe|BenchmarkDelta", "benchmark regex passed to go test")
		benchtime = flag.String("benchtime", "2s", "go test -benchtime")
		count     = flag.Int("count", 1, "go test -count")
		label     = flag.String("label", "current", "report label")
		pkgs      = flag.String("pkgs", "./... ", "packages to benchmark")
	)
	flag.Parse()

	args := []string{"test", "-run", "^$", "-bench", *benchRe, "-benchmem",
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count)}
	args = append(args, strings.Fields(*pkgs)...)
	fmt.Fprintf(os.Stderr, "dtfe-bench: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "dtfe-bench: go test failed: %v\n%s", err, buf.String())
		os.Exit(1)
	}
	os.Stderr.Write(buf.Bytes())

	rep := &Report{
		Label:      *label,
		Commit:     gitCommit(),
		Go:         runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Benchmarks: parseBench(buf.Bytes()),
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "dtfe-bench: no benchmark results parsed")
		os.Exit(1)
	}
	if cpu := cpuModel(); cpu != "" {
		rep.Host = cpu
	}

	if *baseline != "" {
		if data, err := os.ReadFile(*baseline); err == nil {
			var base Report
			if err := json.Unmarshal(data, &base); err != nil {
				fmt.Fprintf(os.Stderr, "dtfe-bench: bad baseline %s: %v\n", *baseline, err)
				os.Exit(1)
			}
			rep.Baseline = &base
			rep.Speedup = make(map[string]float64)
			for name, b := range base.Benchmarks {
				if cur, ok := rep.Benchmarks[name]; ok && cur.NsPerOp > 0 {
					rep.Speedup[name] = b.NsPerOp / cur.NsPerOp
				}
			}
		} else {
			fmt.Fprintf(os.Stderr, "dtfe-bench: baseline %s unreadable (%v); skipping comparison\n", *baseline, err)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtfe-bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "dtfe-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "dtfe-bench: wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
	for name, ratio := range rep.Speedup {
		fmt.Fprintf(os.Stderr, "  %-28s %.2fx vs baseline\n", name, ratio)
	}
}

// cpuModel extracts the CPU model name on Linux; empty elsewhere.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}
