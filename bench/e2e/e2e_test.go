package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == "-hostref" {
		hostRefMain() // a run under test started this binary as its host-reference process
		return
	}
	outDir = "out" // the test runs in the package directory
	os.Exit(m.Run())
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesHarness: every workload and metric named in
// BENCHMARK.json is one the harness emits, with the same unit, and the
// other way round; names and units stay inside the contract's alphabet.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the allowed alphabet", kind, name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %q: unit %q is outside the allowed alphabet", kind, name, unit)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		check("workload", w.Name, "")
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be 1–200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		check("end_to_end", m.Name, m.Unit)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		check("per_layer", m.Name, m.Unit)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d is %s [%s] in BENCHMARK.json, %s [%s] in the harness", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at tiny sizes,
// untraced and traced: the run is correct, every declared metric is
// emitted exactly once with its unit, and no end-to-end metric is zero.
// The batch workloads fail themselves when their phase spans leave more
// than 5% of a block unattributed, so a correct traced run proves that.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			rep, o, err := runWorkload(w, 1, 0.15, trace, tinySizes)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d: %v", w.name, trace, rep.Correct, rep.Attempted, rep.Failed, o.problems)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics emitted, %d declared", w.name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := rep.Metrics[m.name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): metric %s missing", w.name, trace, m.name)
				case v.Unit != m.unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.name, m.name, v.Unit, m.unit)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", w.name, m.name, v.Value)
				}
			}
			if trace {
				if _, err := os.Stat("out/trace-" + w.name + ".jsonl"); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
				if f := rep.Metrics["trace.unattributed_frac"].Value; f > 0.05 {
					t.Errorf("%s: %.1f%% of a block is outside its phase spans", w.name, 100*f)
				}
			}
		}
	}
}

// TestInjectedMismatchFailsTheRun flips one bit of one output on its way
// to the oracle in each kind of workload; the run must report a failure.
func TestInjectedMismatchFailsTheRun(t *testing.T) {
	injectCorruption = true
	defer func() { injectCorruption = false }()
	for _, name := range []string{"batch_build", "serve_unique", "dist_fields", "dist_grid"} {
		rep, _, err := runWorkload(findWorkload(name), 1, 0.15, false, tinySizes)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Correct || rep.Failed == 0 {
			t.Errorf("%s: a corrupted output passed the oracle (correct=%v failed=%d)", name, rep.Correct, rep.Failed)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5}
	cases := []struct {
		b      []float64
		higher bool
		want   string
	}{
		{[]float64{100.2, 100, 99.8, 100.1, 100}, false, "within bound"},
		{[]float64{120, 121, 119, 120, 120}, false, "worse"},
		{[]float64{80, 81, 79, 80, 80}, false, "better"},
		{[]float64{80, 81, 79, 80, 80}, true, "worse"},
		{[]float64{60, 140, 100, 70, 130}, false, "unresolved"},
	}
	for _, c := range cases {
		if got, _ := verdict(steady, c.b, c.higher, 0.10); got != c.want {
			t.Errorf("verdict(%v, higherBetter=%v) = %q, want %q", c.b, c.higher, got, c.want)
		}
	}
}
