package delaunay

import (
	"cmp"
	"slices"

	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
)

// Restore rebuilds a Triangulation t that New or ApplyDelta returned from
// what a resident mesh keeps: the points, the duplicate table (dupOf[i] is
// t.DuplicateOf(i)) and the finite prefix of the pool, a hull face's
// neighbour NoTet. It takes over finite, appending the infinite tets, and
// shares pts and dupOf. A compacted mesh is a pure function of its points
// (compact.go), so the result is deeply equal to New(pts) but for
// BuildStats. Broken structure is geomerr.ErrMeshCorrupt; geometry is
// left to Validate and ValidateDelaunay.
func Restore(pts []geom.Vec3, dupOf []int32, finite []Tet) (*Triangulation, error) {
	const op = "delaunay.Restore"
	n, nf := int32(len(pts)), int32(len(finite))
	if len(dupOf) != len(pts) || nf == 0 {
		return nil, geomerr.Corrupt(op, "%d finite tets, %d duplicate-table entries for %d points", nf, len(dupOf), n)
	}
	vertTet := make([]int32, n)
	for i := range vertTet {
		vertTet[i] = NoTet
	}
	var hull []Tet
	for ti := range finite {
		tt, x := &finite[ti], int32(ti)
		for k, v := range tt.V {
			if v < 0 || v >= n {
				return nil, geomerr.Corrupt(op, "tet %d slot %d: vertex %d out of range", ti, k, v)
			}
			if vertTet[v] == NoTet {
				vertTet[v] = x
			}
			switch nb := tt.N[k]; {
			case nb == NoTet:
				// N[1:] carries the hull slot until the hull edges are linked.
				ft := faceTable[k]
				inf := Tet{V: [4]int32{Inf, tt.V[ft[0]], tt.V[ft[2]], tt.V[ft[1]]}, N: [4]int32{x, int32(k), int32(k), int32(k)}}
				canonicalize(&inf)
				hull = append(hull, inf)
			case nb < 0 || nb >= nf:
				return nil, geomerr.Corrupt(op, "tet %d face %d: neighbour %d out of range", ti, k, nb)
			default:
				// Branch-free: which slot names x back is unpredictable.
				if b := &finite[nb].N; min(uint32(b[0]^x), uint32(b[1]^x), uint32(b[2]^x), uint32(b[3]^x)) != 0 {
					return nil, geomerr.Corrupt(op, "tet %d face %d: neighbour %d does not name it back", ti, k, nb)
				}
			}
		}
	}
	inserted := 0
	for v, c := range dupOf {
		if c < 0 || c >= n || dupOf[c] != c || (c == int32(v)) != (vertTet[v] != NoTet) {
			return nil, geomerr.Corrupt(op, "vertex %d: duplicate of %d, in tet %d", v, c, vertTet[v])
		}
		if c == int32(v) {
			inserted++
		}
	}

	t := &Triangulation{
		pts:           pts,
		tets:          append(finite, hull...),
		finite:        int(nf),
		vertTet:       vertTet,
		dupOf:         dupOf,
		rng:           0x9e3779b97f4a7c15,
		insertedCount: inserted,
	}
	t.dead = make([]bool, len(t.tets))
	infinite := t.tets[nf:]
	slices.SortFunc(infinite, func(a, b Tet) int {
		return cmp.Or(cmp.Compare(a.V[1], b.V[1]), cmp.Compare(a.V[2], b.V[2]), cmp.Compare(a.V[3], b.V[3]))
	})
	idx := make([]int32, len(infinite))
	for j := range infinite {
		idx[j] = nf + int32(j)
		it := &infinite[j]
		t.tets[it.N[0]].N[it.N[1]] = idx[j]
		it.N[1], it.N[2], it.N[3] = NoTet, NoTet, NoTet
	}
	t.linkFacesBrute(idx)
	if slices.ContainsFunc(infinite, func(it Tet) bool { return slices.Contains(it.N[1:], NoTet) }) {
		return nil, geomerr.Corrupt(op, "a hull edge is on an odd number of hull faces")
	}
	return t, nil
}
