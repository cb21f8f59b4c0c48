package pipeline

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"godtfe/internal/geom"
	"godtfe/internal/synth"
)

// fieldPins are FNV-64a digests of every field grid Run returns for one
// catalog, taken in centre order with each item's particle count, recorded
// before Phase 1's exchange and cube queries were rewritten. The
// cross-configuration suites compare one run against another; this pins
// the fields themselves, so a change that moves every configuration alike
// still shows.
var fieldPins = map[bool]uint64{ // by Config.Periodic
	false: 0xeed33b386d74bddb,
	true:  0xda84ade8dcc8aab1,
}

// fieldDigest hashes the fields and item counts of one world's results in
// centre order, and counts the items that ran on a rank other than their
// owner.
func fieldDigest(t *testing.T, results []*Result, want int) (digest uint64, shipped int) {
	t.Helper()
	var fields []Field
	n := map[geom.Vec3]int{}
	for _, r := range results {
		fields = append(fields, r.Fields...)
		for _, it := range r.Items {
			n[it.Center] = it.N
			if it.Shipped {
				shipped++
			}
		}
	}
	if len(fields) != want {
		t.Fatalf("%d fields, want %d", len(fields), want)
	}
	slices.SortFunc(fields, func(a, b Field) int { return lexCompare(a.Center, b.Center) })
	h := fnv.New64a()
	var buf []byte
	put := func(x uint64) { buf = binary.LittleEndian.AppendUint64(buf, x) }
	for _, f := range fields {
		put(math.Float64bits(f.Center.X))
		put(math.Float64bits(f.Center.Y))
		put(math.Float64bits(f.Center.Z))
		put(uint64(n[f.Center]))
		for _, v := range f.Grid.Data {
			put(math.Float64bits(v))
		}
	}
	h.Write(buf)
	return h.Sum64(), shipped
}

// TestFieldsPinnedToParent: every field of a clustered catalog, at 1 and 4
// ranks, with and without work sharing, is what it was when fieldPins
// were recorded for its periodicity, bit for bit.
func TestFieldsPinnedToParent(t *testing.T) {
	pts := synth.HaloSet(6000, unitBox(), synth.DefaultHaloSpec(), 31)
	centers := synth.Uniform(8, unitBox(), 32)
	centers = append(centers,
		geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5}, // on the 2×2×1 rank boundary
		geom.Vec3{X: 0.03, Y: 0.04, Z: 0.02},
		geom.Vec3{X: 0.97, Y: 0.5, Z: 0.99},
	)
	// Six more in one rank's quarter, so work sharing has items to ship.
	for i := 0; i < 6; i++ {
		centers = append(centers, geom.Vec3{X: 0.2 + 0.04*float64(i%3), Y: 0.2 + 0.05*float64(i/3), Z: 0.4})
	}
	for _, periodic := range []bool{false, true} {
		for _, ranks := range []int{1, 4} {
			for _, lb := range []bool{false, true} {
				name := fmt.Sprintf("periodic=%v/ranks=%d/lb=%v", periodic, ranks, lb)
				cfg := Config{
					Box: unitBox(), FieldLen: 0.14, GridN: 12, Periodic: periodic,
					LoadBalance: lb, KeepFields: true, Seed: 33,
				}
				got, shipped := fieldDigest(t, runPipeline(t, ranks, cfg, pts, centers), len(centers))
				if want := fieldPins[periodic]; got != want {
					t.Errorf("%s: digest %#x, pinned %#x", name, got, want)
				}
				if lb && ranks > 1 && shipped == 0 {
					t.Errorf("%s: no item shipped; the work-package path is not covered", name)
				}
			}
		}
	}
}
