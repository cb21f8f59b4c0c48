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
// (possible only on a corrupted mesh).
func (t *Triangulation) Locate(p geom.Vec3) (int32, error) {
	return t.LocateFrom(t.last, p)
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
	if t.cmark[ti] == t.epoch {
		return t.cval[ti], nil
	}
	t.build.ConflictTests++
	c, err := t.conflicts(ti, p)
	if err != nil {
		return false, err
	}
	t.cmark[ti] = t.epoch
	t.cval[ti] = c
	return c, nil
}

// insert adds vertex v to the triangulation. Exact duplicates are recorded
// in dupOf and skipped. A non-nil error reports either degenerate input
// the symbolic perturbation could not absorb (geomerr.ErrDegenerateInput)
// or a broken structural invariant (geomerr.ErrMeshCorrupt); in both cases
// the triangulation must be discarded.
func (t *Triangulation) insert(v int32) error {
	p := t.pts[v]
	// One epoch per insertion: it scopes both the cavity marks and the
	// conflict memo, so findConflictSeed's evaluations are reused by the
	// cavity flood fill.
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
// tets and the outward-oriented boundary faces.
func (t *Triangulation) carveCavity(seed int32, p geom.Vec3) error {
	// The epoch was bumped by insert(); the flood-fill stack keeps its
	// backing array on the Triangulation across insertions.
	t.cavity = t.cavity[:0]
	t.border = t.border[:0]
	stack := t.stack[:0]

	t.mark[seed] = t.epoch
	stack = append(stack, seed)
	t.cavity = append(t.cavity, seed)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		tt := t.tets[cur] // copy: t.tets may grow later, but not here
		for f := 0; f < 4; f++ {
			n := tt.N[f]
			if t.mark[n] == t.epoch {
				continue
			}
			c, err := t.conflictsCached(n, p)
			if err != nil {
				t.stack = stack
				return err
			}
			if c {
				t.mark[n] = t.epoch
				t.cavity = append(t.cavity, n)
				stack = append(stack, n)
				continue
			}
			ft := faceTable[f]
			// Record the reciprocal face index now: by the time the cavity
			// is refilled the slot for cur may have been recycled.
			g := int32(-1)
			for j := 0; j < 4; j++ {
				if t.tets[n].N[j] == cur {
					g = int32(j)
					break
				}
			}
			if g < 0 {
				t.stack = stack
				return geomerr.Corrupt("delaunay.insert", "neighbor symmetry violated between tets %d and %d", cur, n)
			}
			t.border = append(t.border, borderFace{
				outside:     n,
				outsideFace: g,
				w:           [3]int32{tt.V[ft[0]], tt.V[ft[1]], tt.V[ft[2]]},
			})
		}
	}
	t.stack = stack
	return nil
}

// fillCavity deletes the cavity and retriangulates it as the star of vertex
// v over the boundary faces, rebuilding all adjacency.
func (t *Triangulation) fillCavity(v int32) error {
	for _, ti := range t.cavity {
		t.killTet(ti)
	}
	// Three internal faces per new tet bounds the table load; reset is
	// O(1) (epoch bump) once the backing arrays have grown.
	t.faceTab.reset(3 * len(t.border))
	var lastNew int32 = NoTet
	for _, bf := range t.border {
		nt := t.newTet(Tet{V: [4]int32{v, bf.w[0], bf.w[1], bf.w[2]}})
		lastNew = nt
		// Face opposite v is the boundary face; glue to the outside tet.
		t.tets[nt].N[0] = bf.outside
		t.tets[bf.outside].N[bf.outsideFace] = nt
		// Internal faces: opposite slot k (k=1..3) the face holds v and
		// the two w's other than w[k-1]; key on that vertex pair.
		for k := 1; k <= 3; k++ {
			var x, y int32
			switch k {
			case 1:
				x, y = bf.w[1], bf.w[2]
			case 2:
				x, y = bf.w[0], bf.w[2]
			case 3:
				x, y = bf.w[0], bf.w[1]
			}
			key := edgeKey(x, y)
			if prev, ok := t.faceTab.takeOrInsert(key, faceRef{tet: nt, face: int32(k)}); ok {
				t.tets[nt].N[k] = prev.tet
				t.tets[prev.tet].N[prev.face] = nt
			}
		}
		for _, u := range t.tets[nt].V {
			if u != Inf {
				t.vertTet[u] = nt
			}
		}
	}
	if t.faceTab.live != 0 {
		return geomerr.Corrupt("delaunay.insert", "cavity retriangulation left %d unmatched faces", t.faceTab.live)
	}
	t.last = lastNew
	return nil
}

func edgeKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a+1))<<32 | uint64(uint32(b+1))
}
