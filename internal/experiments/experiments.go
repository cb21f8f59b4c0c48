// Package experiments regenerates every evaluation artifact of the paper
// (Figures 6–13). Each FigN driver produces a Report whose rows carry the
// same series the paper plots; EXPERIMENTS.md records the measured shapes
// against the published ones.
//
// Hardware note: this reproduction runs on a single core, so the kernel
// comparisons (Figs 6–8) measure real executions of the real kernels,
// while the rank-scaling studies (Figs 9–13) evaluate schedule quality in
// the deterministic virtual-time executor (internal/vtime) with per-item
// costs calibrated by measuring the real kernel; see DESIGN.md §1.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Options tune experiment size.
type Options struct {
	// Scale in (0, 1] shrinks the workloads proportionally; 1 is the
	// default reproduction size (already scaled to a single host).
	Scale float64
	// Seed drives every random draw.
	Seed int64
	// ArtifactDir receives image artifacts (fig1's PGM); "" = current
	// directory.
	ArtifactDir string
}

func (o Options) fill() Options {
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 20160913 // CLUSTER'16 conference week
	}
	return o
}

func (o Options) scaled(n int) int {
	v := int(float64(n) * o.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// Report is one experiment's output.
type Report struct {
	ID      string
	Title   string
	Rows    []string
	Notes   []string
	Elapsed time.Duration
}

// Rowf appends a formatted row.
func (r *Report) Rowf(format string, args ...any) {
	r.Rows = append(r.Rows, fmt.Sprintf(format, args...))
}

// Notef appends a formatted note.
func (r *Report) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Print renders the report.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	for _, row := range r.Rows {
		fmt.Fprintln(w, row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintf(w, "(%s in %v)\n\n", r.ID, r.Elapsed.Round(time.Millisecond))
}

// String renders the report to a string.
func (r *Report) String() string {
	var b strings.Builder
	r.Print(&b)
	return b.String()
}

// Driver is a figure driver.
type Driver func(Options) (*Report, error)

// All maps figure ids to drivers.
func All() map[string]Driver {
	return map[string]Driver{
		"fig1":   Fig1,
		"fig6":   Fig6,
		"fig7":   Fig7,
		"fig8":   Fig8,
		"fig9":   Fig9,
		"fig10":  Fig10,
		"fig11":  Fig11,
		"fig12":  Fig12,
		"fig13":  Fig13,
		"faults": Faults,
	}
}

// IDs lists figure ids in order.
func IDs() []string {
	return []string{"fig1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "faults"}
}
