package delaunay

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"godtfe/internal/geom"
	"godtfe/internal/geomerr"
)

// Delta updates: point insertion and removal by local cavity repair.
//
// ApplyDelta edits a triangulation incrementally instead of rebuilding it
// from scratch. Insertion reuses the Bowyer–Watson conflict-cavity
// machinery verbatim. Removal re-triangulates the vertex star: the link
// vertices of the removed vertex v are triangulated on their own
// (buildRaw on the link coordinates, same exact predicates and symbolic
// perturbation), and the tets of that link triangulation in conflict with
// v — by the very predicate insertion uses — are exactly the cavity that
// inserting v would have carved, so gluing them into the star hole
// restores the Delaunay triangulation of the remaining points. Hull
// vertices are handled uniformly by the symbolic infinite vertex: the
// link triangulation's own infinite tets stand in for the outer wedges of
// the star. Every removal is dry-run validated (the hole tets must tile
// the star boundary exactly, each boundary face matched once and each
// internal face twice); any structural surprise — and any degenerate link
// the local build rejects — falls back to a from-scratch rebuild of the
// final point set, which is always exact.
//
// Because the symbolic perturbation depends only on coordinates, the
// incremental result after compact() is deeply equal to New() of the same
// point set — the differential oracle delta_test.go enforces.
//
// ApplyDelta never mutates the receiver: all pool arrays are cloned up
// front (copy-on-write at array granularity), so render snapshots holding
// the old triangulation — the SoA mesh in internal/render shares the
// Points() slice — keep a consistent view while the update lands.

// Delta is an incremental edit: Remove lists indices into the current
// point list (duplicates of removed points may be listed independently);
// Add appends new points. Remove indices refer to the pre-update
// numbering, so a point added by a Delta cannot be removed by the same
// Delta. After the update, surviving points keep their relative order and
// added points follow them, exactly as if the edited slice had been built
// from scratch.
type Delta struct {
	Remove []int
	Add    []geom.Vec3
}

// XInterval is a closed interval of x coordinates, the dirty-region
// currency of the serving layer: a render column can only have changed if
// its x-range intersects a dirty interval.
type XInterval struct {
	Lo, Hi float64
}

// maxDirtyIntervals caps the merged dirty-interval list; past the cap the
// list is collapsed to its span. Coarsening is sound (a superset of the
// true dirty region) and keeps cache-invalidation sweeps O(entries).
const maxDirtyIntervals = 64

// DeltaStats reports what an ApplyDelta did and which x-ranges of the
// render plane it dirtied.
type DeltaStats struct {
	Inserted    int // points added (including duplicates of existing points)
	Removed     int // points removed (including duplicate members)
	Relabeled   int // canonical removals absorbed by promoting a surviving duplicate
	StarRepairs int // topological removals done by local star re-triangulation
	Rebuilds    int // 1 if the batch fell back to a from-scratch rebuild

	KilledTets  int // finite tets destroyed (surgery only; 0 after a rebuild fallback)
	CreatedTets int // finite tets created (surgery only)

	// DirtyAll marks the whole plane dirty: set on rebuild fallback and
	// whenever the point-set bounding box changed (the render kernel's
	// degeneracy epsilon is derived from the bbox diagonal, so a bbox
	// change can move perturbation decisions in columns arbitrarily far
	// from the edit).
	DirtyAll bool
	// DirtyX is the merged set of closed x-intervals containing every
	// column whose rendered value may differ from the pre-update mesh.
	// nil when DirtyAll, and empty when the delta was a no-op.
	DirtyX []XInterval
}

// DirtyIntersects reports whether the closed x-range [lo, hi] overlaps
// the dirty region.
func (s *DeltaStats) DirtyIntersects(lo, hi float64) bool {
	if s.DirtyAll {
		return true
	}
	for _, iv := range s.DirtyX {
		if iv.Lo <= hi && iv.Hi >= lo {
			return true
		}
	}
	return false
}

// deltaLog collects dirty-region evidence while surgery runs: the
// x-extents of killed finite tets (their columns see a different tet set)
// and the set of vertices whose DTFE density may have changed (every
// vertex of a killed or created tet — its incident-volume sum changed —
// plus canonical vertices whose duplicate multiplicity changed). The
// final dirty region is the killed extents plus the post-surgery star
// extent of every dirty vertex (density feeds every incident tet's
// interpolation).
type deltaLog struct {
	killed  int
	created int
	iv      []XInterval
	dirty   []bool // indexed by vertex; grown as inserts extend the point list

	// Scratch for removeVertex, reused across every removal in the batch
	// so each star repair does not rebuild its local-triangulation pools
	// from nothing. Owned by the surgery; the log is nil'd before compact.
	scratch linkScratch
}

// linkScratch recycles the buffers of the per-removal link triangulation
// and the face maps of the star-hole glue pass.
type linkScratch struct {
	lt    *Triangulation
	order []int
	lpts  []geom.Vec3
	link  []int32
	hole  [][4]int32

	boundary  map[tkey]faceRef
	faceCount map[tkey]int
	glue      map[tkey]faceRef
}

// tkey is a sorted vertex triple naming a face (Inf sorts first).
type tkey [3]int32

func sortedKey(a, b, c int32) tkey {
	k := tkey{a, b, c}
	sort3(&k[0], &k[1], &k[2])
	return k
}

// build re-triangulates pts into the reusable scratch triangulation. It
// is buildRaw without BRIO (input order: a link is a few dozen points),
// finiteness checks (the inputs are mesh coordinates), or fresh
// allocations: pool arrays are truncated and regrown in place, which
// newTet does with explicit zero appends, so the state is
// indistinguishable from a fresh build.
func (s *linkScratch) build(pts []geom.Vec3) (*Triangulation, error) {
	if s.lt == nil {
		s.lt = &Triangulation{}
	}
	t := s.lt
	t.pts = append(t.pts[:0], pts...)
	t.vertTet = t.vertTet[:0]
	t.dupOf = t.dupOf[:0]
	for i := range pts {
		t.vertTet = append(t.vertTet, NoTet)
		t.dupOf = append(t.dupOf, int32(i))
	}
	t.tets = t.tets[:0]
	t.dead = t.dead[:0]
	t.mark = t.mark[:0]
	t.cmark = t.cmark[:0]
	t.cval = t.cval[:0]
	t.free = t.free[:0]
	t.epoch = 0
	t.last = NoTet
	t.rng = 0x9e3779b97f4a7c15
	t.insertedCount = 0
	for len(s.order) < len(pts) {
		s.order = append(s.order, len(s.order))
	}
	order := s.order[:len(pts)]
	used, err := t.initFirstTet(order)
	if err != nil {
		return nil, err
	}
	for _, idx := range order {
		v := int32(idx)
		if v == used[0] || v == used[1] || v == used[2] || v == used[3] {
			continue
		}
		if err := t.insert(v); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (l *deltaLog) mark(v int32) {
	if v == Inf {
		return
	}
	for int(v) >= len(l.dirty) {
		l.dirty = append(l.dirty, false)
	}
	l.dirty[v] = true
}

func (l *deltaLog) noteKill(t *Triangulation, ti int32) {
	tt := &t.tets[ti]
	if tt.InfSlot() >= 0 {
		for _, v := range tt.V {
			l.mark(v)
		}
		return
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range tt.V {
		l.mark(v)
		x := t.pts[v].X
		lo = min(lo, x)
		hi = max(hi, x)
	}
	l.iv = append(l.iv, XInterval{Lo: lo, Hi: hi})
	l.killed++
}

func (l *deltaLog) noteNew(t *Triangulation, ti int32) {
	tt := &t.tets[ti]
	fin := true
	for _, v := range tt.V {
		if v == Inf {
			fin = false
			continue
		}
		l.mark(v)
	}
	if fin {
		l.created++
	}
}

// ApplyDelta returns a new Triangulation with the delta applied, leaving
// the receiver untouched. The result is canonically compacted and deeply
// equal to New() of the edited point set; DeltaStats reports the dirty
// x-region. Errors mirror New's: invalid removal indices, non-finite
// added points, or an edited set that is degenerate (fewer than four
// affinely independent points).
func (t *Triangulation) ApplyDelta(d Delta) (*Triangulation, *DeltaStats, error) {
	st := &DeltaStats{}
	n := len(t.pts)
	rset := make(map[int32]bool, len(d.Remove))
	for _, r := range d.Remove {
		if r < 0 || r >= n {
			return nil, nil, geomerr.Degenerate("delaunay.ApplyDelta", "removal index %d out of range [0,%d)", r, n)
		}
		if rset[int32(r)] {
			return nil, nil, geomerr.Degenerate("delaunay.ApplyDelta", "removal index %d listed twice", r)
		}
		rset[int32(r)] = true
	}
	for i, p := range d.Add {
		if !p.IsFinite() {
			return nil, nil, fmt.Errorf("delaunay.ApplyDelta: %w: %w",
				geomerr.ErrDegenerateInput,
				&geomerr.BadParticleError{Index: n - len(rset) + i, Reason: fmt.Sprintf("non-finite coordinate %v", p)})
		}
	}

	// The edited point set — the rebuild fallback's input and the
	// differential oracle's.
	final := make([]geom.Vec3, 0, n-len(rset)+len(d.Add))
	for i, p := range t.pts {
		if !rset[int32(i)] {
			final = append(final, p)
		}
	}
	final = append(final, d.Add...)
	if len(final) < 4 {
		return nil, nil, geomerr.Degenerate("delaunay.ApplyDelta", "need at least 4 points after delta, got %d", len(final))
	}

	nt := t.cloneForDelta()
	nt.dlog = &deltaLog{dirty: make([]bool, len(t.pts))}
	ok := nt.applyDeltaInPlace(d, rset, st)
	st.Inserted = len(d.Add)
	st.Removed = len(d.Remove)
	if !ok {
		st.Rebuilds = 1
		st.StarRepairs = 0
		st.KilledTets, st.CreatedTets = 0, 0
		st.DirtyAll = true
		st.DirtyX = nil
		fresh, err := New(final)
		if err != nil {
			return nil, nil, err
		}
		return fresh, st, nil
	}
	st.KilledTets = nt.dlog.killed
	st.CreatedTets = nt.dlog.created
	if geom.BoundsOf(t.pts) != geom.BoundsOf(final) {
		st.DirtyAll = true
	} else {
		iv, ivOK := nt.dirtyIntervals(rset)
		if !ivOK {
			st.DirtyAll = true
		} else {
			st.DirtyX = mergeIntervals(iv)
		}
	}
	if st.DirtyAll {
		st.DirtyX = nil
	}

	if !nt.excise(rset) {
		// A removed vertex is still referenced — surgery bug; the rebuild
		// is always exact.
		st.Rebuilds = 1
		st.DirtyAll = true
		st.DirtyX = nil
		fresh, err := New(final)
		if err != nil {
			return nil, nil, err
		}
		return fresh, st, nil
	}
	nt.dlog = nil
	nt.compact()
	return nt, st, nil
}

// cloneForDelta copies every pool array so the receiver's state — shared
// with in-flight render snapshots — is never written.
func (t *Triangulation) cloneForDelta() *Triangulation {
	rng := t.rng
	if rng == 0 {
		rng = 0x9e3779b97f4a7c15
	}
	return &Triangulation{
		pts:           slices.Clone(t.pts),
		tets:          slices.Clone(t.tets),
		dead:          slices.Clone(t.dead),
		free:          slices.Clone(t.free),
		vertTet:       slices.Clone(t.vertTet),
		dupOf:         slices.Clone(t.dupOf),
		last:          t.last,
		mark:          make([]int32, len(t.tets)),
		cmark:         make([]int32, len(t.tets)),
		cval:          make([]bool, len(t.tets)),
		rng:           rng,
		insertedCount: t.insertedCount,
	}
}

// applyDeltaInPlace runs the surgery on the (cloned) receiver. A false
// return means "fall back to a from-scratch rebuild" — the receiver may
// then be in an arbitrary state and must be discarded.
func (t *Triangulation) applyDeltaInPlace(d Delta, rset map[int32]bool, st *DeltaStats) bool {
	n := int32(len(t.pts))

	removes := make([]int32, 0, len(rset))
	for r := range rset {
		removes = append(removes, r)
	}
	slices.Sort(removes)

	// Duplicate groups of removed canonical vertices: members (excluding
	// the canonical itself) in ascending index order, so promotion picks
	// the smallest survivor — matching New's "dupOf points to the lowest
	// index with these coordinates" invariant.
	groups := make(map[int32][]int32)
	needGroups := false
	for _, r := range removes {
		if t.dupOf[r] == r {
			needGroups = true
			break
		}
	}
	if needGroups {
		for i := int32(0); i < n; i++ {
			if c := t.dupOf[i]; c != i && rset[c] {
				groups[c] = append(groups[c], i)
			}
		}
	}

	relabel := make(map[int32]int32)
	var topo []int32
	for _, r := range removes {
		c := t.dupOf[r]
		if c != r {
			// Removing a duplicate member: the mesh is untouched, but the
			// canonical's mass loses one contribution, so its density and
			// every incident tet's interpolation change.
			t.dlog.mark(c)
			continue
		}
		promote := int32(-1)
		for _, m := range groups[r] {
			if !rset[m] {
				promote = m
				break
			}
		}
		if promote >= 0 {
			relabel[r] = promote
			st.Relabeled++
		} else {
			topo = append(topo, r)
		}
	}

	// Relabels are pure renames: the coordinate stays in the mesh under
	// the promoted duplicate's index. One pass rewrites tets and dupOf.
	if len(relabel) > 0 {
		for i := range t.tets {
			if t.dead[i] {
				continue
			}
			for k := 0; k < 4; k++ {
				if nv, ok := relabel[t.tets[i].V[k]]; ok {
					t.tets[i].V[k] = nv
				}
			}
		}
		for i := int32(0); i < n; i++ {
			if nv, ok := relabel[t.dupOf[i]]; ok && !rset[i] {
				t.dupOf[i] = nv
			}
		}
		for r, p := range relabel {
			t.dupOf[p] = p
			t.vertTet[p] = t.vertTet[r]
			t.vertTet[r] = NoTet
			t.dlog.mark(p)
		}
	}

	for _, r := range topo {
		if !t.removeVertex(r) {
			return false
		}
		st.StarRepairs++
		t.insertedCount--
	}

	base := n
	t.pts = append(t.pts, d.Add...)
	for i := base; i < int32(len(t.pts)); i++ {
		t.dupOf = append(t.dupOf, i)
		t.vertTet = append(t.vertTet, NoTet)
	}
	for i := base; i < int32(len(t.pts)); i++ {
		if err := t.insert(i); err != nil {
			return false
		}
		// New canonical vertex or extra mass on an existing one — either
		// way the canonical's density changed.
		t.dlog.mark(t.dupOf[i])
	}
	return true
}

// collectStar returns every live tet incident to v (finite and infinite),
// flooding across the faces that contain v. On return t.mark[ti] ==
// t.epoch exactly for star members. nil means the anchor was broken.
func (t *Triangulation) collectStar(v int32) []int32 {
	start := t.vertTet[v]
	if start == NoTet || start >= int32(len(t.tets)) || t.dead[start] {
		return nil
	}
	t.epoch++
	t.mark[start] = t.epoch
	out := []int32{start}
	for qi := 0; qi < len(out); qi++ {
		cur := out[qi]
		tt := &t.tets[cur]
		slot := -1
		for k, u := range tt.V {
			if u == v {
				slot = k
				break
			}
		}
		if slot < 0 {
			return nil
		}
		for k := 0; k < 4; k++ {
			if k == slot {
				continue
			}
			// The face opposite slot k contains v (k != slot), so the
			// neighbor across it is incident to v too.
			nb := tt.N[k]
			if t.mark[nb] != t.epoch {
				t.mark[nb] = t.epoch
				out = append(out, nb)
			}
		}
	}
	return out
}

// removeVertex deletes canonical vertex v by star re-triangulation. See
// the package comment at the top of this file for the algorithm and its
// correctness argument. Returns false when the caller must fall back to a
// from-scratch rebuild (degenerate link, or the dry-run validation found
// a hole that does not tile the star boundary); the triangulation may
// then be partially modified and must be discarded.
func (t *Triangulation) removeVertex(v int32) bool {
	star := t.collectStar(v)
	if star == nil {
		return false
	}

	// Link: the finite vertices of the star other than v. Dedupe by
	// linear scan — links are a few dozen vertices, far below map
	// break-even.
	sc := &t.dlog.scratch
	link := sc.link[:0]
	for _, ti := range star {
	nextVert:
		for _, u := range t.tets[ti].V {
			if u == v || u == Inf {
				continue
			}
			for _, w := range link {
				if w == u {
					continue nextVert
				}
			}
			link = append(link, u)
		}
	}
	sc.link = link
	if len(link) < 4 {
		return false
	}
	lpts := sc.lpts[:0]
	for _, u := range link {
		lpts = append(lpts, t.pts[u])
	}
	sc.lpts = lpts
	// No BRIO inside build: the link is a few dozen points — under the
	// size where brioOrder itself skips the rounds — and there the Hilbert
	// sort costs more than the locate walks it would save. Insertion order
	// never changes the result (the perturbation is coordinate-only).
	lt, err := sc.build(lpts)
	if err != nil {
		return false
	}

	// Hole tets: link-triangulation tets (finite and infinite) in
	// conflict with v's coordinate — by insertion duality, exactly the
	// cavity inserting v into DT(link) would carve, i.e. exactly the tets
	// of the final mesh that tile v's old star. The conflict region is
	// face-connected, so locate + carveCavity's flood finds all of it
	// without scanning the whole local pool.
	p := t.pts[v]
	lt.epoch++
	loc, lerr := lt.LocateFrom(lt.last, p)
	if lerr != nil {
		return false
	}
	seed, serr := lt.findConflictSeed(loc, p)
	if serr != nil || seed == NoTet {
		return false
	}
	if cerr := lt.carveCavity(seed, p); cerr != nil {
		return false
	}
	hole := sc.hole[:0]
	for _, i := range lt.cavity {
		var q [4]int32
		for k, u := range lt.tets[i].V {
			if u == Inf {
				q[k] = Inf
			} else {
				q[k] = link[u]
			}
		}
		hole = append(hole, q)
	}
	sc.hole = hole
	if len(hole) == 0 {
		return false
	}

	// Boundary faces of the star hole: in each star tet, the one face not
	// containing v, with its outside neighbor. collectStar's marks are
	// still current (nothing bumped t.epoch since).
	if sc.boundary == nil {
		sc.boundary = make(map[tkey]faceRef, 4*len(star))
		sc.faceCount = make(map[tkey]int, 4*len(star))
		sc.glue = make(map[tkey]faceRef, 4*len(star))
	} else {
		clear(sc.boundary)
		clear(sc.faceCount)
		clear(sc.glue)
	}
	boundary := sc.boundary
	for _, ti := range star {
		tt := &t.tets[ti]
		slot := -1
		for k, u := range tt.V {
			if u == v {
				slot = k
				break
			}
		}
		nb := tt.N[slot]
		if t.mark[nb] == t.epoch {
			return false // face opposite v led back into the star
		}
		g := int32(-1)
		for j := 0; j < 4; j++ {
			if t.tets[nb].N[j] == ti {
				g = int32(j)
				break
			}
		}
		if g < 0 {
			return false
		}
		ft := faceTable[slot]
		k := sortedKey(tt.V[ft[0]], tt.V[ft[1]], tt.V[ft[2]])
		if _, dup := boundary[k]; dup {
			return false
		}
		boundary[k] = faceRef{tet: nb, face: g}
	}

	// Dry-run validation before any mutation: the hole must tile the star
	// boundary exactly — each boundary face appears on exactly one hole
	// tet, every other hole face on exactly two.
	faceCount := sc.faceCount
	for _, q := range hole {
		for f := 0; f < 4; f++ {
			ft := faceTable[f]
			faceCount[sortedKey(q[ft[0]], q[ft[1]], q[ft[2]])]++
		}
	}
	bseen := 0
	for k, c := range faceCount {
		if _, isB := boundary[k]; isB {
			if c != 1 {
				return false
			}
			bseen++
		} else if c != 2 {
			return false
		}
	}
	if bseen != len(boundary) {
		return false
	}

	// Commit: kill the star, create the hole tets, glue boundary and
	// internal faces. The dry run guarantees both maps drain.
	for _, ti := range star {
		t.killTet(ti)
	}
	glue := sc.glue
	lastNew := NoTet
	for _, q := range hole {
		nt := t.newTet(Tet{V: q})
		lastNew = nt
		for f := 0; f < 4; f++ {
			ft := faceTable[f]
			k := sortedKey(q[ft[0]], q[ft[1]], q[ft[2]])
			if bf, ok := boundary[k]; ok {
				t.tets[nt].N[f] = bf.tet
				t.tets[bf.tet].N[bf.face] = nt
				delete(boundary, k)
			} else if prev, ok := glue[k]; ok {
				t.tets[nt].N[f] = prev.tet
				t.tets[prev.tet].N[prev.face] = nt
				delete(glue, k)
			} else {
				glue[k] = faceRef{tet: nt, face: int32(f)}
			}
		}
		for _, u := range t.tets[nt].V {
			if u != Inf {
				t.vertTet[u] = nt
			}
		}
	}
	if len(boundary) != 0 || len(glue) != 0 {
		return false
	}
	t.vertTet[v] = NoTet
	t.last = lastNew
	return true
}

// dirtyIntervals assembles the dirty x-region: the recorded extents of
// killed finite tets plus the extent of every post-surgery tet incident
// to a dirty vertex (a vertex's density change affects interpolation in
// exactly its incident tets). One pass over the live pool — no per-vertex
// star floods. Runs before excision, while vertex indices are still the
// surgery's; removed vertices' old stars were recorded at kill time, and
// duplicate members have no star (their canonical is marked too).
func (t *Triangulation) dirtyIntervals(rset map[int32]bool) ([]XInterval, bool) {
	if len(t.dlog.iv) == 0 && len(t.dlog.dirty) == 0 {
		return nil, true
	}
	// Thousands of tiny intervals land here at high churn; rather than
	// sort-merging them, accumulate coverage on a fixed bucket grid over
	// the x-range (a range-increment diff array) and emit the covered
	// runs, snapped outward to bucket edges. Snapping coarsens — a strict
	// superset of the true dirty region — so soundness is preserved.
	const nbuck = 512
	b := geom.BoundsOf(t.pts)
	minX, maxX := b.Min.X, b.Max.X
	if !(maxX > minX) {
		return []XInterval{{Lo: minX, Hi: maxX}}, true
	}
	w := (maxX - minX) / nbuck
	var diff [nbuck + 1]int32
	cover := func(lo, hi float64) {
		i0 := int(math.Floor((lo - minX) / w))
		i1 := int(math.Floor((hi - minX) / w))
		i0 = max(0, min(i0, nbuck-1))
		i1 = max(0, min(i1, nbuck-1))
		diff[i0]++
		diff[i1+1]--
	}
	for _, iv := range t.dlog.iv {
		cover(iv.Lo, iv.Hi)
	}

	active := make([]bool, len(t.pts))
	for v, d := range t.dlog.dirty {
		if d && !rset[int32(v)] && t.dupOf[v] == int32(v) {
			active[v] = true
		}
	}
	for ti := range t.tets {
		if t.dead[ti] {
			continue
		}
		hit := false
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, u := range t.tets[ti].V {
			if u == Inf {
				continue
			}
			if active[u] {
				hit = true
			}
			x := t.pts[u].X
			lo = min(lo, x)
			hi = max(hi, x)
		}
		if hit && lo <= hi {
			cover(lo, hi)
		}
	}

	var iv []XInterval
	depth := int32(0)
	run := -1
	for i := 0; i < nbuck; i++ {
		depth += diff[i]
		if depth > 0 {
			if run < 0 {
				run = i
			}
		} else if run >= 0 {
			iv = append(iv, XInterval{Lo: minX + float64(run)*w, Hi: minX + float64(i)*w})
			run = -1
		}
	}
	if run >= 0 {
		iv = append(iv, XInterval{Lo: minX + float64(run)*w, Hi: maxX})
	}
	return iv, true
}

// excise drops the removed point slots, compacting pts/dupOf/vertTet in
// place and remapping every live vertex reference. Returns false if a
// removed vertex is still referenced by a live tet (surgery bug; caller
// rebuilds from scratch).
func (t *Triangulation) excise(rset map[int32]bool) bool {
	if len(rset) == 0 {
		return true
	}
	remap := make([]int32, len(t.pts))
	w := int32(0)
	for i := int32(0); i < int32(len(t.pts)); i++ {
		if rset[i] {
			remap[i] = -1
			continue
		}
		remap[i] = w
		t.pts[w] = t.pts[i]
		t.dupOf[w] = t.dupOf[i]
		t.vertTet[w] = t.vertTet[i]
		w++
	}
	t.pts = t.pts[:w]
	t.dupOf = t.dupOf[:w]
	t.vertTet = t.vertTet[:w]
	for i := range t.dupOf {
		nv := remap[t.dupOf[i]]
		if nv < 0 {
			return false
		}
		t.dupOf[i] = nv
	}
	for ti := range t.tets {
		if t.dead[ti] {
			continue
		}
		for k := 0; k < 4; k++ {
			u := t.tets[ti].V[k]
			if u == Inf {
				continue
			}
			nv := remap[u]
			if nv < 0 {
				return false
			}
			t.tets[ti].V[k] = nv
		}
	}
	return true
}

// mergeIntervals sorts and merges overlapping closed intervals, collapsing
// to the overall span past maxDirtyIntervals.
func mergeIntervals(iv []XInterval) []XInterval {
	if len(iv) == 0 {
		return []XInterval{}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].Lo < iv[j].Lo })
	out := iv[:1]
	for _, next := range iv[1:] {
		last := &out[len(out)-1]
		if next.Lo <= last.Hi {
			last.Hi = max(last.Hi, next.Hi)
		} else {
			out = append(out, next)
		}
	}
	if len(out) > maxDirtyIntervals {
		out = []XInterval{{Lo: out[0].Lo, Hi: out[len(out)-1].Hi}}
	}
	return out
}
