package delaunay

import (
	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
)

// xorshiftStar is a small xorshift64* PRNG step used only to randomize
// the face visiting order during walks (stochastic visibility walk),
// keeping runs deterministic for a given build.
func xorshiftStar(rng *uint64) uint64 {
	x := *rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*rng = x
	return x * 0x2545f4914f6cdd1d
}

// Locate returns a live tetrahedron whose closure contains p, walking from
// an internal hint. The result is an infinite tet when p lies outside the
// convex hull. It returns geomerr.ErrDegenerateInput for a non-finite
// query and geomerr.ErrLocateDiverged if the walk fails to terminate
// (possible only on a corrupted mesh). The walk draws from a private copy
// of the triangulation's stream, so concurrent Locate calls on a finished
// triangulation are race-free.
func (t *Triangulation) Locate(p geom.Vec3) (int32, error) {
	rng := t.rng
	ti, _, err := t.LocateSeeded(t.last, p, &rng)
	return ti, err
}

// LocateFrom walks toward p starting from the given tet (which may be dead
// or infinite; a live start is chosen if needed). It implements the
// stochastic visibility walk: from a finite tet, move through any face
// whose outward side strictly contains p. The walk terminates on Delaunay
// triangulations.
func (t *Triangulation) LocateFrom(start int32, p geom.Vec3) (int32, error) {
	ti, _, err := t.LocateFromCount(start, p)
	return ti, err
}

// LocateFromCount is LocateFrom reporting the number of tetrahedra visited
// (the walk length, the cost driver of walking-based grid rendering).
func (t *Triangulation) LocateFromCount(start int32, p geom.Vec3) (int32, int, error) {
	return t.LocateSeeded(start, p, &t.rng)
}

// LocateSeeded is LocateFromCount with caller-owned xorshift state (must
// be non-zero), making concurrent read-only point location race-free: the
// walk's stochastic face order draws from *rng instead of the
// triangulation's shared internal stream. The rng influences only the
// walk path, never which tetrahedron is returned for a point in general
// position.
func (t *Triangulation) LocateSeeded(start int32, p geom.Vec3, rng *uint64) (int32, int, error) {
	if !p.IsFinite() {
		return NoTet, 0, geomerr.Degenerate("delaunay.Locate", "non-finite query point %v", p)
	}
	cur := start
	if cur < 0 || cur >= int32(len(t.tets)) || t.dead[cur] {
		var err error
		cur, err = t.anyLiveTet()
		if err != nil {
			return NoTet, 0, err
		}
	}
	// If we start on an infinite tet, step into the hull first.
	if s := t.tets[cur].InfSlot(); s >= 0 {
		cur = t.tets[cur].N[s]
	}
	maxSteps := 4*len(t.tets) + 64
	for step := 0; step < maxSteps; step++ {
		tt := &t.tets[cur]
		if tt.InfSlot() >= 0 {
			// p escaped the hull: it belongs to this infinite region.
			return cur, step + 1, nil
		}
		off := int(xorshiftStar(rng) & 3)
		moved := false
		for k := 0; k < 4; k++ {
			f := (k + off) & 3
			ft := faceTable[f]
			a, b, c := tt.V[ft[0]], tt.V[ft[1]], tt.V[ft[2]]
			if geom.Orient3D(t.pts[a], t.pts[b], t.pts[c], p) > 0 {
				cur = tt.N[f]
				moved = true
				break
			}
		}
		if !moved {
			return cur, step + 1, nil
		}
	}
	// Should be unreachable with exact predicates; fall back to scanning.
	for i := range t.tets {
		if t.dead[i] || t.tets[i].InfSlot() >= 0 {
			continue
		}
		if t.containsPoint(int32(i), p) {
			return int32(i), maxSteps, nil
		}
	}
	return NoTet, maxSteps, &geomerr.LocateError{Op: "delaunay.Locate", Steps: maxSteps}
}

func (t *Triangulation) anyLiveTet() (int32, error) {
	for i := range t.tets {
		if !t.dead[i] {
			return int32(i), nil
		}
	}
	return NoTet, geomerr.Corrupt("delaunay.Locate", "no live tets")
}

func (t *Triangulation) containsPoint(ti int32, p geom.Vec3) bool {
	tt := &t.tets[ti]
	for f := 0; f < 4; f++ {
		ft := faceTable[f]
		a, b, c := tt.V[ft[0]], tt.V[ft[1]], tt.V[ft[2]]
		if geom.Orient3D(t.pts[a], t.pts[b], t.pts[c], p) > 0 {
			return false
		}
	}
	return true
}

// conflicts reports whether p lies strictly inside the (symbolically
// perturbed) circumsphere of tet ti. For an infinite tet the circumsphere
// degenerates to the open outer half-space of its hull facet; when p lies
// exactly on the facet plane, membership in the facet's circumdisk is
// equivalent to membership in the circumball of the finite cell behind the
// facet, so that cell's perturbed test decides the tie consistently.
func (t *Triangulation) conflicts(ti int32, p geom.Vec3) (bool, error) {
	tt := &t.tets[ti]
	if s := tt.InfSlot(); s >= 0 {
		ft := faceTable[s]
		a, b, c := tt.V[ft[0]], tt.V[ft[1]], tt.V[ft[2]]
		// The face opposite Inf has its positive side toward the hull
		// interior; p conflicts when on the infinite (negative) side.
		o := geom.Orient3D(t.pts[a], t.pts[b], t.pts[c], p)
		if o < 0 {
			return true, nil
		}
		if o > 0 {
			return false, nil
		}
		// Finite neighbor shares the disk; the cached wrapper lets the
		// delegated result be reused when that neighbor is tested directly.
		return t.conflictsCached(tt.N[s], p)
	}
	pa, pb, pc, pd := t.pts[tt.V[0]], t.pts[tt.V[1]], t.pts[tt.V[2]], t.pts[tt.V[3]]
	if s := geom.InSphere(pa, pb, pc, pd, p); s != 0 {
		return s > 0, nil
	}
	s, err := inSpherePerturbed(pa, pb, pc, pd, p)
	if err != nil {
		return false, err
	}
	return s > 0, nil
}

// conflictsCached memoizes conflicts per (tet, insertion): the epoch is
// bumped once per insert, so within one insertion each tet's conflict
// status is computed at most once, however many cavity faces it borders.
// The memo changes evaluation counts only, never results — the predicates
// are exact and deterministic — so the build output is byte-identical. A
// compacted triangulation has no memo (compact drops the insert scratch);
// ValidateDelaunay's queries on one are evaluated directly.
func (t *Triangulation) conflictsCached(ti int32, p geom.Vec3) (bool, error) {
	if t.cmark == nil {
		return t.conflicts(ti, p)
	}
	m := t.cmark[ti]
	if m&^3 != t.epoch<<2 {
		var err error
		if m, err = t.testConflict(ti, p); err != nil {
			return false, err
		}
	}
	return m&1 != 0, nil
}

// testConflict evaluates conflicts(ti, p), counts it, and stores and
// returns ti's state word for this insertion: epoch<<2 | conflict.
func (t *Triangulation) testConflict(ti int32, p geom.Vec3) (int32, error) {
	t.build.ConflictTests++
	c, err := t.conflicts(ti, p)
	if err != nil {
		return 0, err
	}
	m := t.epoch << 2
	if c {
		m |= 1
	}
	t.cmark[ti] = m
	return m, nil
}

// insert adds vertex v to the triangulation. Exact duplicates are recorded
// in dupOf and skipped. A non-nil error reports either degenerate input
// the symbolic perturbation could not absorb (geomerr.ErrDegenerateInput)
// or a broken structural invariant (geomerr.ErrMeshCorrupt); in both cases
// the triangulation must be discarded.
func (t *Triangulation) insert(v int32) error {
	p := t.pts[v]
	// One epoch per insertion: it scopes the conflict state words, so
	// findConflictSeed's evaluations are reused by the cavity flood fill.
	t.epoch++
	loc, steps, err := t.LocateSeeded(t.last, p, &t.rng)
	if err != nil {
		return err
	}

	// Duplicate check: if p coincides with a vertex of the containing tet,
	// merge instead of inserting.
	for _, u := range t.tets[loc].V {
		if u != Inf && t.pts[u] == p {
			t.dupOf[v] = u
			return nil
		}
	}

	seed, err := t.findConflictSeed(loc, p)
	if err != nil {
		return err
	}
	if seed == NoTet {
		// Exactly cospherical with everything relevant but not a duplicate
		// cannot happen for a point in the closure of a live tet; fail
		// loudly rather than corrupt the structure.
		return geomerr.Corrupt("delaunay.insert", "no conflict seed for point %v", p)
	}

	if err := t.carveCavity(seed, p); err != nil {
		return err
	}
	if err := t.fillCavity(v); err != nil {
		return err
	}
	t.insertedCount++
	t.build.Inserts++
	t.build.WalkSteps += int64(steps)
	t.build.CavityTets += int64(len(t.cavity))
	t.build.NewTets += int64(len(t.border))
	return nil
}

// findConflictSeed returns a tet in conflict with p, searching outward from
// loc (which should contain p in its closure).
func (t *Triangulation) findConflictSeed(loc int32, p geom.Vec3) (int32, error) {
	if c, err := t.conflictsCached(loc, p); err != nil {
		return NoTet, err
	} else if c {
		return loc, nil
	}
	// p may sit exactly on a boundary face of loc with its open
	// circumball empty; a neighbor must then conflict.
	for _, n := range t.tets[loc].N {
		if n == NoTet || t.dead[n] {
			continue
		}
		if c, err := t.conflictsCached(n, p); err != nil {
			return NoTet, err
		} else if c {
			return n, nil
		}
	}
	for _, n := range t.tets[loc].N {
		if n == NoTet || t.dead[n] {
			continue
		}
		for _, m := range t.tets[n].N {
			if m == NoTet || t.dead[m] {
				continue
			}
			if c, err := t.conflictsCached(m, p); err != nil {
				return NoTet, err
			} else if c {
				return m, nil
			}
		}
	}
	return NoTet, nil
}

// carveCavity flood-fills the conflict region from seed, recording cavity
// tets and the outward-oriented boundary faces. A tet's state word (cmark)
// also carries its cavity membership, so the fill reads one per face.
func (t *Triangulation) carveCavity(seed int32, p geom.Vec3) error {
	// The epoch was bumped by insert(); the flood-fill stack keeps its
	// backing array on the Triangulation across insertions. findConflictSeed
	// tested seed in this epoch, so its word is ep|1.
	ep := t.epoch << 2
	cavity, border, stack := t.cavity[:0], t.border[:0], t.stack[:0]
	defer func() { t.cavity, t.border, t.stack = cavity, border, stack }()

	t.cmark[seed] = ep | 3
	stack = append(stack, seed)
	cavity = append(cavity, seed)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		tt := &t.tets[cur] // the pool is not written until fillCavity
		for f := 0; f < 4; f++ {
			n := tt.N[f]
			m := t.cmark[n]
			if m == ep|3 {
				continue
			}
			if m&^3 != ep {
				var err error
				if m, err = t.testConflict(n, p); err != nil {
					return err
				}
			}
			if m&1 != 0 {
				t.cmark[n] = ep | 3
				cavity = append(cavity, n)
				stack = append(stack, n)
				continue
			}
			ft := faceTable[f]
			// Record the reciprocal face index now: by the time the cavity
			// is refilled the slot for cur holds a new tet.
			// Four independent tests: the compiler makes them conditional
			// moves, where a loop that breaks mispredicts on most faces.
			nn, g := &t.tets[n].N, int32(-1)
			if nn[0] == cur {
				g = 0
			}
			if nn[1] == cur {
				g = 1
			}
			if nn[2] == cur {
				g = 2
			}
			if nn[3] == cur {
				g = 3
			}
			if g < 0 {
				return geomerr.Corrupt("delaunay.insert", "neighbor symmetry violated between tets %d and %d", cur, n)
			}
			border = append(border, borderFace{
				outside:     n,
				outsideFace: g,
				w:           [3]int32{tt.V[ft[0]], tt.V[ft[1]], tt.V[ft[2]]},
			})
		}
	}
	return nil
}

// fillCavity retriangulates the cavity as the star of vertex v over the
// boundary faces, rebuilding all adjacency. New tet i takes cavity slot i;
// only a surplus goes to the free list and only a shortfall comes from it.
// vertTet is not kept up: nothing reads it before compact() recomputes it.
func (t *Triangulation) fillCavity(v int32) error {
	// Pass 1: create the tets, glue each to the outside across its boundary
	// face, and enter its three directed boundary edges in the face table.
	// The list of new tets reuses the spent flood-fill stack.
	t.faceTab.reset(3 * len(t.border))
	news := t.stack[:0]
	for i, bf := range t.border {
		a, b, c := bf.w[0], bf.w[1], bf.w[2]
		tet := Tet{V: [4]int32{v, a, b, c}, N: [4]int32{bf.outside, NoTet, NoTet, NoTet}}
		var nt int32
		if i < len(t.cavity) {
			nt = t.cavity[i]
			t.reuseTet(nt, tet)
		} else {
			nt = t.newTet(tet)
		}
		news = append(news, nt)
		t.tets[bf.outside].N[bf.outsideFace] = nt
		t.faceTab.put(dirEdgeKey(b, c), nt)
		t.faceTab.put(dirEdgeKey(c, a), nt)
		t.faceTab.put(dirEdgeKey(a, b), nt)
	}
	t.stack = news
	for _, ti := range t.cavity[min(len(t.border), len(t.cavity)):] {
		t.killTet(ti)
	}
	// Pass 2: the internal face opposite slot k holds v and the edge of the
	// boundary face opposite w[k-1]; its mate owns the reversed edge.
	for i, bf := range t.border {
		a, b, c := bf.w[0], bf.w[1], bf.w[2]
		n := &t.tets[news[i]].N
		n[1] = t.faceTab.get(dirEdgeKey(c, b))
		n[2] = t.faceTab.get(dirEdgeKey(a, c))
		n[3] = t.faceTab.get(dirEdgeKey(b, a))
		if n[1] == NoTet || n[2] == NoTet || n[3] == NoTet {
			return geomerr.Corrupt("delaunay.insert", "cavity retriangulation left an unmatched face on tet %d", news[i])
		}
	}
	t.last = news[len(news)-1]
	return nil
}
