package pipeline

import (
	"fmt"
	"testing"

	"godtfe/internal/domain"
	"godtfe/internal/geom"
	"godtfe/internal/halo"
	"godtfe/internal/mpi"
	"godtfe/internal/synth"
)

// BenchmarkPartition measures Phase 1 and the cube queries on the
// dist_fields workload's shape — 100k clustered particles strided over 4
// ranks, FieldLen 0.12, 40 fields centred on friends-of-friends halos —
// one stage at a time, each in ns per particle of the catalog:
//
//   - exchange: domain.Exchange over the 4-rank world;
//   - index: every rank's cell index over its halo (owned then ghosts);
//   - queries: every rank's InBox for Phase 2's count and again for the
//     item's gather, for the centres it owns.
//
// The 10k case runs under -short, the 100k one only without it.
func BenchmarkPartition(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			if n > 10_000 && testing.Short() {
				b.Skip("the 100k catalog is skipped under -short")
			}
			benchPartition(b, n)
		})
	}
}

// partitionSink keeps the benchmarked results alive.
var partitionSink any

func benchPartition(b *testing.B, n int) {
	const ranks = 4
	cfg := Config{Box: unitBox(), FieldLen: 0.12, GridN: 64}
	pts := synth.HaloSet(n, cfg.Box, synth.DefaultHaloSpec(), 1)
	centers := halo.Centers(halo.Find(pts, 0.2*halo.MeanSeparation(pts), 5), 40)
	dec, err := domain.NewDecomp(cfg.Box, ranks, cfg.triCubeSide()/2)
	if err != nil {
		b.Fatal(err)
	}
	locals := make([][]geom.Vec3, ranks)
	for i, p := range pts {
		locals[i%ranks] = append(locals[i%ranks], p)
	}
	exchange := func() [][]geom.Vec3 {
		halos := make([][]geom.Vec3, ranks)
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			owned, ghosts, err := domain.Exchange(c, dec, locals[c.Rank()])
			halos[c.Rank()] = append(owned, ghosts...)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		return halos
	}
	perParticle := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/particle")
	}

	b.Run("exchange", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			partitionSink = exchange()
		}
		perParticle(b)
	})
	halos := exchange()
	side := cfg.triCubeSide() / 2
	b.Run("index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, h := range halos {
				partitionSink = newCellIndex(h, side)
			}
		}
		perParticle(b)
	})
	rt := &runtime{cfg: cfg}
	indexes := make([]*cellIndex, ranks)
	mine := make([][]geom.Vec3, ranks)
	for r := range indexes {
		indexes[r] = newCellIndex(halos[r], side)
		sub := dec.SubVolume(r)
		for _, ctr := range centers {
			if dec.OwnerOf(ctr) == r && sub.Contains(ctr) {
				mine[r] = append(mine[r], ctr)
			}
		}
	}
	b.Run("queries", func(b *testing.B) {
		var ids []int32
		for i := 0; i < b.N; i++ {
			for r, ci := range indexes {
				for _, ctr := range mine[r] {
					cube := rt.cube(ctr)
					ids = ci.InBox(cube, ids[:0]) // Phase 2's count
					ids = ci.InBox(cube, ids[:0]) // the item's gather
				}
			}
		}
		partitionSink = ids
		perParticle(b)
		b.ReportMetric(float64(len(centers)), "queries")
	})
}
