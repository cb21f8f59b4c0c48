package render

import (
	"fmt"
	"math/rand"
	"testing"

	"godtfe/internal/geom"
	"godtfe/internal/synth"
)

// shufflePool permutes the marcher's SoA records at random and
// remaps every neighbour reference and every entry facet's tet to match:
// the march visits the same tets in the same order and computes the same
// bits, from scattered addresses instead of the Hilbert-ordered pool
// compaction leaves.
func shufflePool(m *Marcher, rng *rand.Rand) {
	s := &m.soa
	to := rng.Perm(len(s.tets)) // record i moves to to[i]
	tets := make([]soaTet, len(s.tets))
	for i, st := range s.tets {
		for k, nn := range st.N {
			if nn >= 0 {
				st.N[k] = int32(to[nn])
			}
		}
		tets[to[i]] = st
	}
	s.tets = tets
	for i := range m.entry.faces {
		f := &m.entry.faces[i]
		f.behind = int32(to[f.behind])
	}
}

// poolOrderSpec is a 128² grid over the unit square, every line through
// the whole hull.
var poolOrderSpec = Spec{Nx: 128, Ny: 128, Cell: 1.0 / 128}

func poolOrderMarcher(t testing.TB, n int) *Marcher {
	box := geom.AABB{Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	return NewMarcher(fieldFor(t, synth.HaloSet(n, box, synth.DefaultHaloSpec(), 1)))
}

func TestShuffledPoolRendersSameBits(t *testing.T) {
	m := poolOrderMarcher(t, 3000)
	want, _, err := m.Render(poolOrderSpec, 1, ScheduleDynamic)
	if err != nil {
		t.Fatal(err)
	}
	shufflePool(m, rand.New(rand.NewSource(1)))
	got, _, err := m.Render(poolOrderSpec, 1, ScheduleDynamic)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum() != want.Checksum() {
		t.Fatal("a shuffled pool renders different bits")
	}
}

// BenchmarkMarchPoolOrder measures the cost of a march step against the
// order of the tet pool: Hilbert (as built) or shuffled, on clustered
// catalogs of 12k (batch_march's size) and 100k particles. batch_march is
// the end-to-end workload's render alone: 12k clustered particles, 640
// columns across the catalog's x extent, lines through its whole z extent,
// one worker; `make bench-march` runs it on one pinned core.
func BenchmarkMarchPoolOrder(b *testing.B) {
	for _, n := range []int{12000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if n > 12000 && testing.Short() {
				b.Skip("100k build under -short")
			}
			m := poolOrderMarcher(b, n)
			b.Run("hilbert", func(b *testing.B) { benchMarch(b, m, poolOrderSpec) })
			shufflePool(m, rand.New(rand.NewSource(1)))
			b.Run("shuffled", func(b *testing.B) { benchMarch(b, m, poolOrderSpec) })
		})
	}
	b.Run("batch_march", func(b *testing.B) {
		box := geom.AABB{Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
		pts := synth.HaloSet(12000, box, synth.DefaultHaloSpec(), 1)
		bb := geom.BoundsOf(pts)
		sz := bb.Size()
		cell := sz.X / 640
		spec := Spec{
			Min: geom.Vec2{X: bb.Min.X, Y: bb.Min.Y}, Nx: 640, Ny: int(sz.Y/cell) + 1, Cell: cell,
			ZMin: bb.Min.Z, ZMax: bb.Max.Z,
		}
		benchMarch(b, NewMarcher(fieldFor(b, pts)), spec)
	})
}

// benchMarch renders spec on one worker per iteration and reports the
// march's ns/step and steps/column beside ns/op.
func benchMarch(b *testing.B, m *Marcher, spec Spec) {
	var steps int64
	for i := 0; i < b.N; i++ {
		_, st, err := m.Render(spec, 1, ScheduleDynamic)
		if err != nil {
			b.Fatal(err)
		}
		steps += st[0].Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
	b.ReportMetric(float64(steps)/float64(b.N*spec.Nx*spec.Ny), "steps/column")
}
