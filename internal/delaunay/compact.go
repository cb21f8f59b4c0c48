package delaunay

import (
	"slices"

	"godtfe/internal/geom"
)

// Post-build canonicalization and locality compaction of the tet pool.
//
// The symbolic perturbation (perturb.go) depends only on point coordinates,
// so the Delaunay triangulation of a point set is canonically unique — the
// same finite-tet set regardless of insertion order. What DOES depend on
// build history is the representation: which vertex sits in which tet slot
// (insertion-dependent, and slot order feeds FP results downstream: the
// gradient solve and interpolation base in internal/dtfe use slot 0), and
// where each tet lands in the pool (pool order is the FP accumulation order
// of VertexVolumes and the memory layout the march kernel's neighbor walk
// traverses).
//
// compact() erases that history: every tet is rewritten into its canonical
// slot order (the lexicographically smallest of the 12 orientation-
// preserving vertex permutations), and the pool is rebuilt with finite tets
// sorted by the Hilbert key of their barycenter (ties by vertex quadruple)
// followed by infinite tets sorted by vertex triple. The finite sort is the
// radix pass of geom.SortHilbertWords over key<<28 | slot words, so the
// whole pass is linear in the tet count but for the runs of tets that
// share a Hilbert cell. Two builds of the same point set — BRIO order,
// input order, or a delta applied to an earlier mesh — then produce deeply
// equal Triangulations, which is how update-vs-rebuild bit-identity is
// enforced.
// The Hilbert ordering is also the random-catalog locality fix: pool
// neighbors are spatial neighbors, so the SoA records the render kernel
// walks (internal/render) stay cache-resident.

// canonicalize rewrites tet into its canonical slot order: the
// lexicographically smallest vertex quadruple reachable by an even
// permutation. Even permutations preserve orientation and the faceTable
// outward-face convention, so all structural invariants survive. The four
// vertices are distinct, so the smallest quadruple leads with the smallest
// vertex; the three even permutations that put slot m first are (m, then a
// rotation of faceTable[m]), and the smallest of those starts the rotation
// at the face's smallest vertex. For infinite tets the canonical form
// therefore always has V[0] == Inf.
func canonicalize(tet *Tet) {
	v, n := tet.V, tet.N
	m := 0
	for k := 1; k < 4; k++ {
		if v[k] < v[m] {
			m = k
		}
	}
	f := faceTable[m]
	a, b, c := f[0], f[1], f[2]
	if v[b] < v[a] && v[b] < v[c] {
		a, b, c = b, c, a
	} else if v[c] < v[a] {
		a, b, c = c, a, b
	}
	tet.V = [4]int32{v[m], v[a], v[b], v[c]}
	tet.N = [4]int32{n[m], n[a], n[b], n[c]}
}

// int32Buf returns buf resliced to n entries if it has the capacity, else
// a fresh array. The contents are unspecified.
func int32Buf(buf []int32, n int) []int32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int32, n)
}

// permuteTets moves tets[order[j]] to tets[j] for every j < len(order), in
// place, consuming order, and rewrites the neighbor indices of each tet it
// moves through perm (old index -> new index; neighbors are always live).
// order lists the live slots, each once; dead marks the others. A dead slot
// below len(order) is the open end of a chain: it takes its tet from a live
// slot, which — emptied — takes its own from the next, until the source
// lies at or beyond len(order), where nothing is written. What the chains
// leave are cycles among the first len(order) slots. Every live tet moves
// exactly once, a fixed point onto itself.
func permuteTets(tets []Tet, dead []bool, order, perm []int32) {
	const done = int32(-1)
	n := int32(len(order))
	move := func(dst int32, tt Tet) {
		tt.N = [4]int32{perm[tt.N[0]], perm[tt.N[1]], perm[tt.N[2]], perm[tt.N[3]]}
		tets[dst] = tt
	}
	for s := int32(0); s < n; s++ {
		if !dead[s] {
			continue
		}
		for j := s; ; {
			src := order[j]
			order[j] = done
			move(j, tets[src])
			if src >= n {
				break
			}
			j = src
		}
	}
	for s := int32(0); s < n; s++ {
		if order[s] == done {
			continue
		}
		saved := tets[s]
		for j := s; ; {
			src := order[j]
			order[j] = done
			if src == s {
				move(j, saved)
				break
			}
			move(j, tets[src])
			j = src
		}
	}
}

// barycenterKey returns the Hilbert key, within box, of finite tet ti's
// barycenter. The sum runs in slot order, so it is deterministic once the
// tet is in canonical form.
func (t *Triangulation) barycenterKey(ti int32, box geom.AABB) uint64 {
	v := &t.tets[ti].V
	p0, p1, p2, p3 := t.pts[v[0]], t.pts[v[1]], t.pts[v[2]], t.pts[v[3]]
	return geom.HilbertKey(geom.Vec3{
		X: (p0.X + p1.X + p2.X + p3.X) * 0.25,
		Y: (p0.Y + p1.Y + p2.Y + p3.Y) * 0.25,
		Z: (p0.Z + p1.Z + p2.Z + p3.Z) * 0.25,
	}, box)
}

// maxRadixSlots is the largest pool whose slot indices fit the index field
// of a packed sort word; compact comparison-sorts beyond it. A variable so
// that the tests reach that branch.
var maxRadixSlots = 1 << geom.HilbertIndexBits

// compact canonicalizes every live tet and rebuilds the pool in canonical
// order (finite tets in Hilbert-barycenter order, then infinite tets),
// dropping free slots and all insert scratch state. After compact the
// Triangulation is a pure function of the input point set.
func (t *Triangulation) compact() {
	box := geom.BoundsOf(t.pts)

	// The insert scratch is spent: its arrays hold the live-slot order and
	// the slot permutation, and the pool is permuted in place, so the pass
	// allocates nothing but the sort buffer — a second pool's worth of
	// garbage would otherwise sit beside the field and the march SoA that
	// the caller builds next.
	order := int32Buf(t.mark, len(t.tets)-len(t.free)) // every dead slot is on the free list
	perm := int32Buf(t.cmark, len(t.tets))             // old index -> new index

	// Live slots in ascending order: finite from the front of order,
	// infinite from the back.
	nf, ni := 0, len(order)
	for i := range t.tets {
		if t.dead[i] {
			continue
		}
		canonicalize(&t.tets[i])
		if t.tets[i].V[0] == Inf {
			ni--
			order[ni] = int32(i)
		} else {
			order[nf] = int32(i)
			nf++
		}
	}
	finite, infinite := order[:nf], order[nf:]

	vCmp := func(a, b int32) int {
		va, vb := &t.tets[a].V, &t.tets[b].V
		for k := 0; k < 4; k++ {
			if va[k] != vb[k] {
				if va[k] < vb[k] {
					return -1
				}
				return 1
			}
		}
		return 0 // distinct live tets never share all four vertices
	}
	if len(t.tets) <= maxRadixSlots {
		buf := make([]uint64, 2*nf)
		for j, ti := range finite {
			buf[j] = t.barycenterKey(ti, box)<<geom.HilbertIndexBits | uint64(ti)
		}
		sorted := geom.SortHilbertWords(buf[:nf], buf[nf:])
		// The radix pass left tets that share a cell in slot order; the
		// canonical order within such a run is by vertex quadruple.
		wCmp := func(a, b uint64) int {
			return vCmp(int32(a&geom.HilbertIndexMask), int32(b&geom.HilbertIndexMask))
		}
		for lo := 0; lo < nf; {
			hi := lo + 1
			for hi < nf && sorted[hi]>>geom.HilbertIndexBits == sorted[lo]>>geom.HilbertIndexBits {
				hi++
			}
			if hi-lo > 1 {
				slices.SortFunc(sorted[lo:hi], wCmp)
			}
			lo = hi
		}
		for j, w := range sorted {
			finite[j] = int32(w & geom.HilbertIndexMask)
		}
	} else {
		keys := make([]uint64, len(t.tets))
		for _, ti := range finite {
			keys[ti] = t.barycenterKey(ti, box)
		}
		slices.SortFunc(finite, func(a, b int32) int {
			if keys[a] != keys[b] {
				if keys[a] < keys[b] {
					return -1
				}
				return 1
			}
			return vCmp(a, b)
		})
	}
	slices.SortFunc(infinite, vCmp)

	for newIdx, oldIdx := range order {
		perm[oldIdx] = int32(newIdx)
	}
	permuteTets(t.tets, t.dead, order, perm)
	n := len(order)
	t.tets = t.tets[:n:n]
	t.finite = nf
	t.dead = t.dead[:n:n]
	clear(t.dead)
	t.free = nil

	for v := range t.vertTet {
		t.vertTet[v] = NoTet
	}
	for i := range t.tets {
		for _, v := range t.tets[i].V {
			if v != Inf && t.vertTet[v] == NoTet {
				t.vertTet[v] = int32(i)
			}
		}
	}

	// No exported method inserts, so the exposed triangulation carries no
	// insert scratch; ApplyDelta's working copy allocates its own.
	t.mark, t.cmark, t.cval = nil, nil, nil
	t.epoch = 0
	t.last = 0
	t.rng = 0x9e3779b97f4a7c15
	t.cavity = nil
	t.border = nil
	t.stack = nil
	t.faceTab = flatFaceTable{}
}
