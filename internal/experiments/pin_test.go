package experiments

import (
	"hash/fnv"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// fig1Pins are Fig 1's report rows at small() but the artifact's path.
var fig1Pins = []string{
	"snapshot: 125 PM particles evolved 18 steps; 0 FOF groups (link 0.0332)",
	"largest object: 0 members at (0.500, 0.500, 0.500)",
	"sub-volume: 116 particles, 633 tetrahedra",
	"map: 81x81, sigma in [0, 3.51e+03], dynamic range 0.0 dex",
	"tetrahedra marched: 79168",
}

// countPins are the cube-count vectors of the scaling studies at small():
// their length, sum and FNV-1a digest.
var countPins = map[string][3]uint64{
	"fig9":  {288, 17241, 0x41c662048b1ce3d6},
	"fig12": {364, 6301, 0xfa8ea0317c301881},
	"fig13": {9329, 186575321, 0x173b140f50bfb912},
}

// TestFigureNumbersPinned pins what Figs 1, 9, 12 and 13 compute from their
// cube queries: Fig 1's rows (particle count, tets, σ range, steps marched)
// and each scaling study's per-item counts. None of them depends on a
// timing or on the order in which a query returns a cube's points.
func TestFigureNumbersPinned(t *testing.T) {
	opt := small().fill()
	rep, err := Fig1(opt)
	if err != nil {
		t.Fatal(err)
	}
	rows := slices.DeleteFunc(slices.Clone(rep.Rows), func(r string) bool { return strings.HasPrefix(r, "artifact:") })
	if !slices.Equal(rows, fig1Pins) {
		t.Errorf("fig1 rows:\n%s\npinned:\n%s", strings.Join(rows, "\n"), strings.Join(fig1Pins, "\n"))
	}

	studies := map[string]func(Options) (*scalingStudy, error){
		"fig9":  func(o Options) (*scalingStudy, error) { return galaxyGalaxyStudy(o, o.scaled(7209), 0.12) },
		"fig12": multiplaneStudy,
		"fig13": miraStudy,
	}
	for name, build := range studies {
		s, err := build(opt)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var sum uint64
		for _, c := range s.Counts {
			h.Write(strconv.AppendInt(nil, int64(c), 10))
			h.Write([]byte{' '})
			sum += uint64(c)
		}
		if got := [3]uint64{uint64(len(s.Counts)), sum, h.Sum64()}; got != countPins[name] {
			t.Errorf("%s counts: %d items, sum %d, digest %#x; pinned %v", name, got[0], got[1], got[2], countPins[name])
		}
	}
}
