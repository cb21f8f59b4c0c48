package experiments

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// small returns options that make every driver fast enough for CI.
func small() Options { return Options{Scale: 0.04, Seed: 42, ArtifactDir: os.TempDir()} }

func TestAllDriversRun(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			drv := All()[id]
			rep, err := drv(small())
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if rep.ID != id {
				t.Fatalf("report id %q", rep.ID)
			}
			if len(rep.Rows) == 0 {
				t.Fatalf("%s produced no rows", id)
			}
			if rep.Elapsed <= 0 {
				t.Fatalf("%s has no elapsed time", id)
			}
			out := rep.String()
			if !strings.Contains(out, id) {
				t.Fatalf("%s render missing id:\n%s", id, out)
			}
		})
	}
}

func TestIDsMatchAll(t *testing.T) {
	all := All()
	if len(IDs()) != len(all) {
		t.Fatalf("IDs (%d) and All (%d) disagree", len(IDs()), len(all))
	}
	for _, id := range IDs() {
		if all[id] == nil {
			t.Fatalf("missing driver %s", id)
		}
	}
}

func TestOptionsFill(t *testing.T) {
	o := Options{}.fill()
	if o.Scale != 1 || o.Seed == 0 {
		t.Fatalf("fill = %+v", o)
	}
	if (Options{Scale: 2}).fill().Scale != 1 {
		t.Fatal("overscale not clamped")
	}
	if (Options{Scale: math.NaN()}).fill().Scale != 1 {
		t.Fatal("NaN scale not clamped")
	}
	if (Options{Scale: 0.5}).scaled(100) != 50 {
		t.Fatal("scaled arithmetic")
	}
	if (Options{Scale: 0.001}).fill().scaled(10) != 1 {
		t.Fatal("scaled floor")
	}
}

func TestFig6ShowsKernelAdvantage(t *testing.T) {
	// Even at small scale the marching kernel must beat walking on total
	// interpolation work (the paper's headline).
	rep, err := Fig6(Options{Scale: 0.04, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	// The summary row carries the speedup; parse crudely.
	var speedup float64
	for _, row := range rep.Rows {
		if strings.Contains(row, "total interpolation work") {
			if _, err := fscanLast(row, &speedup); err != nil {
				t.Fatalf("cannot parse %q: %v", row, err)
			}
		}
	}
	if speedup < 1.5 {
		t.Fatalf("marching should clearly beat walking, got %.2fx:\n%s", speedup, out)
	}
}

func TestFig8RatioPeaksAtZero(t *testing.T) {
	rep, err := Fig8(Options{Scale: 0.15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The mode row reports the fullest histogram bin center: near 0.
	var mode float64
	found := false
	for _, row := range rep.Rows {
		if strings.Contains(row, "mode=") {
			if _, err := fmt.Sscanf(row[strings.Index(row, "mode=")+5:], "%g", &mode); err == nil {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no mode row in:\n%s", rep.String())
	}
	if mode < -0.3 || mode > 0.3 {
		t.Fatalf("ratio histogram mode %v not near 0", mode)
	}
}

func TestFig10ImbalanceShape(t *testing.T) {
	rep, err := Fig10(Options{Scale: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Parse the two columns and assert: balanced << unbalanced everywhere,
	// and unbalanced grows from the first to the last rank count.
	type row struct{ unb, bal float64 }
	var rows []row
	for _, r := range rep.Rows[1:] {
		var p int
		var rr row
		if n, _ := fmt.Sscanf(r, "%d %g %g", &p, &rr.unb, &rr.bal); n == 3 {
			rows = append(rows, rr)
		}
	}
	if len(rows) < 3 {
		t.Fatalf("parsed %d rows from:\n%s", len(rows), rep.String())
	}
	for i, rr := range rows {
		if rr.bal > rr.unb/2 {
			t.Fatalf("row %d: balanced %v not well below unbalanced %v", i, rr.bal, rr.unb)
		}
	}
	if rows[len(rows)-1].unb <= rows[0].unb {
		t.Fatalf("unbalanced imbalance did not grow: %v -> %v", rows[0].unb, rows[len(rows)-1].unb)
	}
}

// fscanLast parses the trailing "...N.NNx" number of a row.
func fscanLast(row string, out *float64) (int, error) {
	row = strings.TrimSuffix(strings.TrimSpace(row), "x")
	i := strings.LastIndexByte(row, ' ')
	return fmt.Sscanf(row[i+1:], "%g", out)
}
