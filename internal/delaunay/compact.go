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
// therefore always has V[0] == Inf. It returns the new slots' old ones.
func canonicalize(tet *Tet) [4]int {
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
	return [4]int{m, a, b, c}
}

// permuteTets moves tets[order[j]] to tets[j] for every j < len(order), in
// place, consuming order, after rewriting every live tet's neighbor
// indices through perm (old index -> new index; neighbors are always live)
// in one pass off the moves' serial chain.
// order lists the live slots, each once; dead marks the others. A dead slot
// below len(order) is the open end of a chain: it takes its tet from a live
// slot, which — emptied — takes its own from the next, until the source
// lies at or beyond len(order), where nothing is written. What the chains
// leave are cycles among the first len(order) slots. Every live tet moves
// exactly once, a fixed point onto itself.
func permuteTets(tets []Tet, dead []bool, order []int32, perm []uint64) {
	for i := range tets {
		if !dead[i] {
			n := &tets[i].N
			n[0], n[1], n[2], n[3] = int32(perm[n[0]]), int32(perm[n[1]]), int32(perm[n[2]]), int32(perm[n[3]])
		}
	}
	const done = int32(-1)
	n := int32(len(order))
	for s := int32(0); s < n; s++ {
		if !dead[s] {
			continue
		}
		for j := s; ; {
			src := order[j]
			order[j] = done
			tets[j] = tets[src]
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
				tets[j] = saved
				break
			}
			tets[j] = tets[src]
			j = src
		}
	}
}

// barycenterKey returns the Hilbert key, within box, of finite tet ti's
// barycenter. The sum runs in slot order, so it is deterministic once the
// tet is in canonical form.
func (t *Triangulation) barycenterKey(ti int32, box geom.AABB) uint64 {
	v := &t.tets[ti].V
	return baryKey(t.pts[v[0]], t.pts[v[1]], t.pts[v[2]], t.pts[v[3]], box)
}

// baryKey is the Hilbert key, within box, of the barycenter of p0..p3,
// summed in that order.
func baryKey(p0, p1, p2, p3 geom.Vec3, box geom.AABB) uint64 {
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
// dropping free slots and all insert scratch state and restoring input
// labels. After compact the Triangulation is a pure function of the input
// point set.
func (t *Triangulation) compact() {
	box := geom.BoundsOf(t.pts) // the insertion-ordered copy has the input's bounds

	// The insert scratch is spent: the pool is permuted in place and the
	// live-slot order goes into cmark, so the pass allocates nothing but
	// the sort buffer, which then holds the slot permutation — a second
	// pool's worth of garbage would otherwise sit beside the field and the
	// march SoA that the caller builds next.
	live := len(t.tets) - len(t.free) // every dead slot is on the free list
	buf := make([]uint64, max(2*live, len(t.tets)))
	radix := len(t.tets) <= maxRadixSlots

	// One scan over the live slots, ascending: input labels, canonical
	// slot order from them, and each finite tet's word, with (radix) its
	// key read through the local labels in canonical slot order (the
	// input's sum, bit for bit). Finite words fill buf from the front,
	// infinite slots from the back.
	ids := t.ids
	nf, ni := 0, len(buf)
	for i := range t.tets {
		if t.dead[i] {
			continue
		}
		tt := &t.tets[i]
		lv := tt.V
		if ids != nil {
			for k, u := range lv {
				if u != Inf {
					tt.V[k] = ids[u]
				}
			}
		}
		s := canonicalize(tt)
		if tt.V[0] == Inf {
			ni--
			buf[ni] = uint64(i)
			continue
		}
		buf[nf] = uint64(i)
		if radix {
			key := baryKey(t.pts[lv[s[0]]], t.pts[lv[s[1]]], t.pts[lv[s[2]]], t.pts[lv[s[3]]], box)
			buf[nf] |= key << geom.HilbertIndexBits
		}
		nf++
	}
	if ids != nil {
		// vertTet, recomputed below, lends its array to dupOf.
		dup := t.vertTet
		for k, c := range t.dupOf {
			dup[ids[k]] = ids[c]
		}
		t.dupOf, t.vertTet = dup, t.dupOf
		t.pts, t.ids, t.input = t.input, nil, nil
	}

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
	finite := buf[:nf]
	if radix {
		finite = geom.SortHilbertWords(buf[:nf], buf[nf:2*nf])
		// The radix pass left tets that share a cell in slot order; the
		// canonical order within such a run is by vertex quadruple.
		wCmp := func(a, b uint64) int {
			return vCmp(int32(a&geom.HilbertIndexMask), int32(b&geom.HilbertIndexMask))
		}
		for lo := 0; lo < nf; {
			hi := lo + 1
			for hi < nf && finite[hi]>>geom.HilbertIndexBits == finite[lo]>>geom.HilbertIndexBits {
				hi++
			}
			if hi-lo > 1 {
				slices.SortFunc(finite[lo:hi], wCmp)
			}
			lo = hi
		}
		for j := range finite {
			finite[j] &= geom.HilbertIndexMask
		}
	} else {
		keys := make([]uint64, len(t.tets))
		for _, ti := range finite {
			keys[ti] = t.barycenterKey(int32(ti), box)
		}
		slices.SortFunc(finite, func(a, b uint64) int {
			if keys[a] != keys[b] {
				if keys[a] < keys[b] {
					return -1
				}
				return 1
			}
			return vCmp(int32(a), int32(b))
		})
	}
	infinite := buf[ni:]
	slices.SortFunc(infinite, func(a, b uint64) int { return vCmp(int32(a), int32(b)) })
	order := t.cmark[:live] // the finite slots, then the infinite ones
	for j, ti := range finite {
		order[j] = int32(ti)
	}
	for j, ti := range infinite {
		order[nf+j] = int32(ti)
	}
	perm := buf[:len(t.tets)] // old index -> new index
	for newIdx, oldIdx := range order {
		perm[oldIdx] = uint64(newIdx)
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
	t.cmark = nil
	t.epoch = 0
	t.last = 0
	t.rng = 0x9e3779b97f4a7c15
	t.cavity = nil
	t.border = nil
	t.stack = nil
	t.faceTab = flatFaceTable{}
}
