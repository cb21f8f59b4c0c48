package domain

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"godtfe/internal/geom"
	"godtfe/internal/mpi"
	"godtfe/internal/synth"
)

// exchangePins are FNV-64a digests of every rank's owned and ghost lists,
// in the order Exchange returns them, for the pinCatalog strided over the
// world. They were recorded before Exchange's per-particle loop was
// rewritten, so a change to which rank receives a particle, to a ghost
// image's coordinates or to the order of either list fails here.
var exchangePins = map[string]uint64{
	"ranks=1/periodic=false": 0x98e4d0850931809f,
	"ranks=1/periodic=true":  0xb80f865ce7dd366e,
	"ranks=2/periodic=false": 0xcad3db9642975203,
	"ranks=2/periodic=true":  0x4a3d9994250914c3,
	"ranks=4/periodic=false": 0x790f320b9ae63244,
	"ranks=4/periodic=true":  0x61630aacf755adff,
	"ranks=8/periodic=false": 0xf6de5eb49a71a71e,
	"ranks=8/periodic=true":  0x0fe5cf4d7de549d6,
}

// pinCatalog is a clustered catalog plus, for the decomposition d, points
// placed exactly on its sub-volume faces and on its ghost boxes' faces
// (clipped and unclipped, as Exchange computes them) on every axis, and
// on the box faces.
func pinCatalog(d Decomp) []geom.Vec3 {
	pts := synth.HaloSet(3000, d.Box, synth.DefaultHaloSpec(), 21)
	var faces [3][]float64
	for r := 0; r < d.NumRanks(); r++ {
		sv, gv, gu := d.SubVolume(r), d.GhostVolume(r), d.ghostVolumeUnclipped(r)
		for _, b := range []geom.AABB{sv, gv, gu} {
			faces[0] = append(faces[0], b.Min.X, b.Max.X)
			faces[1] = append(faces[1], b.Min.Y, b.Max.Y)
			faces[2] = append(faces[2], b.Min.Z, b.Max.Z)
		}
	}
	// The coordinates whose periodic images land on a ghost face.
	sz := d.Box.Size()
	faces[0] = append(faces[0], d.Box.Min.X+d.Ghost, d.Box.Max.X-d.Ghost, d.Box.Min.X+0.37*sz.X)
	faces[1] = append(faces[1], d.Box.Min.Y+d.Ghost, d.Box.Max.Y-d.Ghost, d.Box.Min.Y+0.61*sz.Y)
	faces[2] = append(faces[2], d.Box.Min.Z+d.Ghost, d.Box.Max.Z-d.Ghost, d.Box.Min.Z+0.29*sz.Z)
	for a := range faces {
		lo, hi := []float64{d.Box.Min.X, d.Box.Min.Y, d.Box.Min.Z}[a], []float64{d.Box.Max.X, d.Box.Max.Y, d.Box.Max.Z}[a]
		faces[a] = slices.DeleteFunc(faces[a], func(v float64) bool { return v < lo || v > hi })
		slices.Sort(faces[a])
		faces[a] = slices.Compact(faces[a])
	}
	for _, x := range faces[0] {
		for _, y := range faces[1] {
			for _, z := range faces[2] {
				pts = append(pts, geom.Vec3{X: x, Y: y, Z: z})
			}
		}
	}
	return pts
}

// exchangeDigest runs Exchange over a world of d's size with pts strided
// over the ranks and hashes every rank's lists.
func exchangeDigest(t *testing.T, d Decomp, pts []geom.Vec3) uint64 {
	t.Helper()
	ranks := d.NumRanks()
	lists := make([][2][]geom.Vec3, ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		var local []geom.Vec3
		for i := c.Rank(); i < len(pts); i += ranks {
			local = append(local, pts[i])
		}
		owned, ghosts, err := Exchange(c, d, local)
		lists[c.Rank()] = [2][]geom.Vec3{owned, ghosts}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf []byte
	put := func(x uint64) { buf = binary.LittleEndian.AppendUint64(buf, x) }
	for _, l := range lists {
		for _, s := range l {
			put(uint64(len(s)))
			for _, p := range s {
				put(math.Float64bits(p.X))
				put(math.Float64bits(p.Y))
				put(math.Float64bits(p.Z))
			}
		}
	}
	h.Write(buf)
	return h.Sum64()
}

// TestExchangePinnedToParent: every rank's owned and ghost lists are what
// they were when exchangePins were recorded, bit for bit and in order.
func TestExchangePinnedToParent(t *testing.T) {
	box := geom.AABB{Min: geom.Vec3{X: -0.5, Y: 0, Z: 0.25}, Max: geom.Vec3{X: 0.5, Y: 1, Z: 1.25}}
	for _, ranks := range []int{1, 2, 4, 8} {
		for _, periodic := range []bool{false, true} {
			name := fmt.Sprintf("ranks=%d/periodic=%v", ranks, periodic)
			d, err := NewDecomp(box, ranks, 0.09)
			if err != nil {
				t.Fatal(err)
			}
			d.Periodic = periodic
			got := exchangeDigest(t, d, pinCatalog(d))
			want, ok := exchangePins[name]
			if !ok {
				t.Errorf("%s: no pin; digest %#x", name, got)
				continue
			}
			if got != want {
				t.Errorf("%s: digest %#x, pinned %#x", name, got, want)
			}
		}
	}
}
