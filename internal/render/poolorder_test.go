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
// catalogs of 12k (batch_march's size) and 100k particles.
func BenchmarkMarchPoolOrder(b *testing.B) {
	for _, n := range []int{12000, 100000} {
		if n > 12000 && testing.Short() {
			continue
		}
		m := poolOrderMarcher(b, n)
		for _, order := range []string{"hilbert", "shuffled"} {
			if order == "shuffled" {
				shufflePool(m, rand.New(rand.NewSource(1)))
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, order), func(b *testing.B) {
				var steps int64
				for i := 0; i < b.N; i++ {
					_, st, err := m.Render(poolOrderSpec, 1, ScheduleDynamic)
					if err != nil {
						b.Fatal(err)
					}
					steps += st[0].Steps
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
				b.ReportMetric(float64(steps)/float64(b.N*poolOrderSpec.Nx*poolOrderSpec.Ny), "steps/column")
			})
		}
	}
}
