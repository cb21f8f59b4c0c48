package render

import "godtfe/internal/geom"

// entryUnresolved is returned by entryWalk.findFrom when the walk cannot
// certify a strict hit or a strict miss: the query lies on a facet edge or
// vertex (a containment tie between neighboring facets), the start hint is
// unusable, or the step budget ran out. Callers resolve through the bucket
// index, which is the single arbiter for ties — this is what keeps the
// coherent scan's facet choice, and hence the rendered grid, bit-identical
// to a stateless bucket lookup.
const entryUnresolved = int32(-2)

// entryWalk is the paper's own entry-location structure (Section IV-A2):
// the downward-facing hull facets projected onto the x-y plane form a 2D
// triangulation of the projected hull — the projection of a lower convex
// hull, i.e. a regular triangulation, on which a (remembering, stochastic)
// visibility walk terminates. Spatially coherent queries (grid scans) walk
// O(1) facets per query.
type entryWalk struct {
	faces []entryFace
	// nbr[f][e] is the facet across edge e of facet f (edges in the order
	// (a,b), (b,c), (c,a)), or -1 on the projected-hull boundary.
	nbr [][3]int32
}

// findFrom walks from facet start toward xi and classifies the query:
//
//	fi >= 0          xi is strictly inside facet fi (the unique such facet)
//	fi == -1         xi is strictly outside the projected hull (a miss)
//	entryUnresolved  tie, bad hint, or budget exhausted — ask the buckets
//
// Downward facets project clockwise (outward normal z < 0), so the
// interior is on the RIGHT of each directed edge: strictly left means xi
// lies beyond that edge, and crossing a boundary (-1) edge proves xi is
// outside the convex projected hull. rng is caller-owned xorshift state
// (must be non-zero) for the stochastic edge order that guarantees
// termination on regular triangulations; it only influences the path
// taken, never the classification, so callers may use uncoordinated
// per-worker streams.
func (w *entryWalk) findFrom(start int32, xi geom.Vec2, rng *uint64) int32 {
	nf := int32(len(w.faces))
	if nf == 0 {
		return -1
	}
	if start < 0 || start >= nf {
		return entryUnresolved
	}
	cur := start
	maxSteps := int(3*nf) + 16
	for step := 0; step < maxSteps; step++ {
		f := &w.faces[cur]
		x := *rng
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		*rng = x
		off := int(x % 3)
		moved := false
		tie := false
		for k := 0; k < 3; k++ {
			e := (k + off) % 3
			var s, t geom.Vec2
			switch e {
			case 0:
				s, t = f.pa, f.pb
			case 1:
				s, t = f.pb, f.pc
			default:
				s, t = f.pc, f.pa
			}
			o := geom.Orient2D(s, t, xi)
			if o > 0 { // strictly left of CW edge: outside this facet
				n := w.nbr[cur][e]
				if n < 0 {
					return -1 // strictly outside the convex projected hull
				}
				cur = n
				moved = true
				break
			}
			if o == 0 {
				tie = true
			}
		}
		if !moved {
			if tie {
				return entryUnresolved // on an edge or vertex: defer to buckets
			}
			return cur
		}
	}
	// Pathological: the stochastic walk failed to settle in budget.
	return entryUnresolved
}
