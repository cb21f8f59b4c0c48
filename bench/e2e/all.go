package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// samples is what -all writes with -out and -compare reads: per workload
// and end-to-end metric, one value per run; and, from a traced run, the
// per-layer values.
type samples struct {
	Seed    int64                           `json:"seed"`
	Seconds float64                         `json:"seconds"`
	Runs    map[string]map[string][]float64 `json:"runs"`
	Layers  map[string]map[string]float64   `json:"layers,omitempty"`
}

// child runs one workload in a process of its own (so peak_rss_mb is that
// workload's) and returns its report.
func child(name string, seed int64, seconds float64, trace bool) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", tr)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); jerr != nil {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return nil, fmt.Errorf("%s: unreadable result: %w", name, jerr)
	}
	if !rep.Correct {
		return &rep, fmt.Errorf("%s: %d of %d operations failed", name, rep.Failed, rep.Attempted)
	}
	return &rep, nil
}

// runAll runs every workload `runs` times with seeds seed, seed+1, … and
// prints each end-to-end metric with its sample count, median and
// quartiles over runs; with trace, one more traced run per workload
// prints the per-layer metrics it exercises.
func runAll(seed int64, seconds float64, trace bool, runs int, out string) error {
	s := samples{Seed: seed, Seconds: seconds, Runs: map[string]map[string][]float64{}, Layers: map[string]map[string]float64{}}
	for _, w := range workloads {
		s.Runs[w.name] = map[string][]float64{}
		var attempted, failed int64
		for r := 0; r < runs; r++ {
			rep, err := child(w.name, seed+int64(r), seconds, false)
			if err != nil {
				return err
			}
			attempted, failed = attempted+rep.Attempted, failed+rep.Failed
			for name, v := range rep.Metrics {
				s.Runs[w.name][name] = append(s.Runs[w.name][name], v.Value)
			}
		}
		fmt.Printf("%s — one operation: %s\n  %d operations attempted, %d failed, %d run(s)\n", w.name, w.op, attempted, failed, runs)
		for _, m := range endToEnd {
			v := s.Runs[w.name][m.name]
			q1, q3 := quartiles(v)
			fmt.Printf("  %-14s %12.4f %-4s  n=%d  q1 %.4f  q3 %.4f\n", m.name, median(v), m.unit, len(v), q1, q3)
		}
		if trace {
			rep, err := child(w.name, seed, seconds, true)
			if err != nil {
				return err
			}
			s.Layers[w.name] = map[string]float64{}
			for _, m := range perLayer {
				v := rep.Metrics[m.name].Value
				s.Layers[w.name][m.name] = v
				if v != 0 {
					fmt.Printf("    %-38s %14.4f %s\n", m.name, v, m.unit)
				}
			}
		}
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(&s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict classifies B against A for one metric: worse when B's median
// is worse than A's by more than the bound; unresolved when either side's
// own spread (interquartile distance ÷ median) is wider than the bound,
// so the runs cannot tell; better when B's median is better by more than
// the wider of the two spreads; within bound otherwise.
func verdict(a, b []float64, higherBetter bool, bound float64) (string, float64) {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma // positive: B is worse
	if higherBetter {
		worse = -worse
	}
	noise := max(spread(a), spread(b))
	switch {
	case noise > bound:
		return "unresolved", worse
	case worse > bound:
		return "worse", worse
	case -worse > noise && len(a) > 1 && len(b) > 1:
		return "better", worse
	}
	return "within bound", worse
}

// runCompare prints, per workload and end-to-end metric, both sides'
// medians and quartiles and the verdict, using BENCHMARK.json's bounds.
func runCompare(pathA, pathB string) error {
	var bf benchmarkFile
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-compare reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var a, b samples
	for _, in := range []struct {
		path string
		into *samples
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(in.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, in.into); err != nil {
			return fmt.Errorf("%s: %w", in.path, err)
		}
	}
	if a.Seconds != b.Seconds {
		return fmt.Errorf("runs of %g s and %g s do not compare", a.Seconds, b.Seconds)
	}
	fmt.Printf("%-14s %-12s %28s %28s %9s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B worse by", "verdict")
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			va, vb := a.Runs[w.name][m.Name], b.Runs[w.name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			what, worse := verdict(va, vb, m.Better == "higher", m.Bound)
			qa1, qa3 := quartiles(va)
			qb1, qb3 := quartiles(vb)
			fmt.Printf("%-14s %-12s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %+8.1f%%  %s (bound %.0f%%)\n",
				w.name, m.Name, median(va), qa1, qa3, median(vb), qb1, qb3, 100*worse, what, 100*m.Bound)
		}
	}
	return nil
}
