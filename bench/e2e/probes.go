package main

import (
	"fmt"
	"runtime"
	"time"

	"godtfe/internal/delaunay"
	"godtfe/internal/dtfe"
	"godtfe/internal/geom"
	"godtfe/internal/mpi"
	"godtfe/internal/render"
)

// Probes are short fixed-input measurements of one layer, run after the
// timed window of the traced run of the workload that layer matters to.
// They are per-layer metrics only: none of them is gated.

// timeLoop returns ns per call of fn over iters calls.
func timeLoop(iters int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(iters)
}

// geomProbes times the predicates on fixed inputs and builds an exact
// lattice, the catalog on which every insphere test is degenerate.
func geomProbes(e *env, o *outcome) error {
	iters := max(1000, 2_000_000/e.sz.probeScale)
	a, b, c, d := geom.Vec3{X: 0.1, Y: 0.2, Z: 0.3}, geom.Vec3{X: 0.9, Y: 0.15, Z: 0.2}, geom.Vec3{X: 0.4, Y: 0.8, Z: 0.1}, geom.Vec3{X: 0.5, Y: 0.4, Z: 0.9}
	in := geom.Vec3{X: 0.45, Y: 0.4, Z: 0.35}
	sink := 0
	o.set("geom.orient3d_ns", timeLoop(iters, func(int) { sink += geom.Orient3D(a, b, c, d) }))
	o.set("geom.insphere_ns", timeLoop(iters, func(int) { sink += geom.InSphere(a, b, c, d, in) }))
	// Five corners of the unit cube are cospherical: the filter cannot
	// decide and the exact tiers run.
	u := [5]geom.Vec3{{}, {X: 1}, {Y: 1}, {Z: 1}, {X: 1, Y: 1, Z: 1}}
	if geom.Orient3D(u[0], u[1], u[2], u[3]) < 0 {
		u[1], u[2] = u[2], u[1]
	}
	x0 := geom.ExactCalls.Load()
	o.set("geom.insphere_exact_ns", timeLoop(iters/20, func(int) { sink += geom.InSphere(u[0], u[1], u[2], u[3], u[4]) }))
	if geom.ExactCalls.Load() == x0 {
		o.fail("cospherical insphere probe never reached the exact tiers")
	}
	probeSink += uint64(sink)

	side := 20 // 8000 lattice points
	if e.sz.probeScale > 1 {
		side = 6
	}
	var lat []geom.Vec3
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			for k := 0; k < side; k++ {
				lat = append(lat, geom.Vec3{X: float64(i), Y: float64(j), Z: float64(k)})
			}
		}
	}
	x0 = geom.ExactCalls.Load()
	t0 := time.Now()
	tri, err := delaunay.New(lat)
	if err != nil {
		return fmt.Errorf("lattice probe: %w", err)
	}
	n := float64(len(lat))
	o.set("geom.lattice_ns_per_point", float64(time.Since(t0).Nanoseconds())/n)
	o.set("geom.lattice_exact_calls_per_kpoint", 1e3*float64(geom.ExactCalls.Load()-x0)/n)
	o.attempted++
	if err := tri.Validate(); err != nil {
		o.fail("lattice triangulation invalid: %v", err)
	}
	return nil
}

// subsample returns every k-th point so that about n remain.
func subsample(pts []geom.Vec3, n int) []geom.Vec3 {
	k := max(1, len(pts)/n)
	out := make([]geom.Vec3, 0, n+1)
	for i := 0; i < len(pts); i += k {
		out = append(out, pts[i])
	}
	return out
}

// buildProbes measures what the timed blocks cannot without disturbing
// them: retained heap per tetrahedron (forced collections on both sides
// of a build) and the two-worker build against the serial one. With two
// vCPUs and the harness on one of them the parallel number is labelled
// unresolved in the README unless its spread says otherwise.
func buildProbes(o *outcome, pts []geom.Vec3) error {
	sub := subsample(pts, min(len(pts), 20_000))
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	tri, err := delaunay.New(sub)
	if err != nil {
		return err
	}
	serial := time.Since(t0)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	tets := float64(tri.NumFiniteTets())
	o.set("delaunay.heap_bytes_per_tet", ratio(float64(m1.HeapAlloc)-float64(m0.HeapAlloc), tets))

	t0 = time.Now()
	par, err := delaunay.NewParallel(sub, 2)
	if err != nil {
		return err
	}
	o.set("delaunay.par2_speedup", ratio(serial.Seconds(), time.Since(t0).Seconds()))
	o.attempted++
	if par.NumFiniteTets() != tri.NumFiniteTets() {
		o.fail("parallel build has %d tets, serial %d", par.NumFiniteTets(), tri.NumFiniteTets())
	}
	runtime.KeepAlive(tri)
	return nil
}

// marchProbe renders one grid with one and with two workers.
func marchProbe(o *outcome, pts []geom.Vec3, gridN int) error {
	or, err := newMeshOracle(pts)
	if err != nil {
		return err
	}
	box := geom.BoundsOf(pts)
	spec := render.Spec{Min: geom.Vec2{X: box.Min.X, Y: box.Min.Y}, Nx: gridN, Ny: gridN, Cell: box.Size().X / float64(gridN), Samples: 1}
	var t [2]float64
	var sums [2]uint64
	for w := 1; w <= 2; w++ {
		t0 := time.Now()
		g, _, err := or.m.Render(spec, w, render.ScheduleDynamic)
		if err != nil {
			return err
		}
		t[w-1] = time.Since(t0).Seconds()
		sums[w-1] = g.Checksum()
	}
	o.attempted++
	if sums[0] != sums[1] {
		o.fail("two-worker render differs from the one-worker render")
	}
	o.set("render.par2_speedup", ratio(t[0], t[1]))
	return nil
}

// deltaProbe times delaunay.ApplyDelta against a from-scratch build of
// the edited points, on the harness's own mesh of the catalog.
func deltaProbe(e *env, o *outcome, pts []geom.Vec3) error {
	tri, err := delaunay.New(pts)
	if err != nil {
		return err
	}
	rnd := lcg(e.seed + 99)
	var deltaMs []float64
	cur := pts
	for i := 0; i < 5; i++ {
		d := bandChurnDelta(cur, rnd)
		t0 := time.Now()
		next, _, err := tri.ApplyDelta(d)
		if err != nil {
			return fmt.Errorf("delta probe: %w", err)
		}
		deltaMs = append(deltaMs, ms(time.Since(t0)))
		tri, cur = next, applyDeltaToPoints(cur, d)
	}
	t0 := time.Now()
	fresh, err := delaunay.New(cur)
	if err != nil {
		return err
	}
	rebuildMs := ms(time.Since(t0))
	o.attempted++
	if fresh.NumFiniteTets() != tri.NumFiniteTets() {
		o.fail("after 5 deltas the mesh has %d tets, a rebuild %d", tri.NumFiniteTets(), fresh.NumFiniteTets())
	}
	// The field and marcher an update also pays for.
	t0 = time.Now()
	f, err := dtfe.NewField(tri, nil)
	if err != nil {
		return err
	}
	render.NewMarcher(f)
	o.set("delaunay.delta_apply_ms", median(deltaMs))
	o.set("delaunay.rebuild_ms", rebuildMs)
	o.set("delaunay.delta_vs_rebuild", ratio(rebuildMs, median(deltaMs)))
	o.set("fieldserve.update_view_ms", ms(time.Since(t0)))
	return nil
}

// mpiProbes times the in-process message runtime: the typed codec, a
// 1 KiB ping-pong between two ranks, and an all-to-all of particle
// slices between four.
func mpiProbes(e *env, o *outcome) error {
	scale := e.sz.probeScale
	nvec := 4096
	pts := make([]geom.Vec3, nvec)
	for i := range pts {
		pts[i] = geom.Vec3{X: float64(i), Y: float64(i) * 0.5, Z: -float64(i)}
	}
	iters := max(10, 2000/scale)
	var buf []byte
	o.set("mpi.encode_ns_per_vec3", timeLoop(iters, func(int) { buf = mpi.AppendVec3s(buf[:0], pts) })/float64(nvec))
	var out []geom.Vec3
	var derr error
	o.set("mpi.decode_ns_per_vec3", timeLoop(iters, func(int) {
		if _, err := mpi.ReadVec3s(buf, &out); err != nil {
			derr = err
		}
	})/float64(nvec))
	if derr != nil {
		return fmt.Errorf("mpi decode probe: %w", derr)
	}

	rounds := max(20, 2000/scale)
	var pingUs float64
	err := mpi.Run(2, func(c *mpi.Comm) error {
		msg := make([]byte, 1024)
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			if c.Rank() == 0 {
				if err := c.Send(1, 1, msg); err != nil {
					return err
				}
				if _, err := c.Recv(1, 2, &msg); err != nil {
					return err
				}
			} else {
				if _, err := c.Recv(0, 1, &msg); err != nil {
					return err
				}
				if err := c.Send(0, 2, msg); err != nil {
					return err
				}
			}
		}
		if c.Rank() == 0 {
			pingUs = float64(time.Since(t0).Microseconds()) / float64(rounds)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("mpi ping-pong probe: %w", err)
	}
	o.set("mpi.pingpong_us", pingUs)

	const ranks = 4
	per := max(16, 50_000/ranks/scale)
	var a2aMs []float64
	for rep := 0; rep < 3; rep++ {
		var d time.Duration
		err = mpi.Run(ranks, func(c *mpi.Comm) error {
			send := make([][]geom.Vec3, ranks)
			for r := range send {
				send[r] = pts[:min(per, len(pts))]
				for len(send[r]) < per {
					send[r] = append(send[r], pts[:min(per-len(send[r]), len(pts))]...)
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			t0 := time.Now()
			got, err := mpi.Alltoall(c, send)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				d = time.Since(t0)
			}
			for r := range got {
				if len(got[r]) != per {
					return fmt.Errorf("alltoall: got %d points from rank %d, want %d", len(got[r]), r, per)
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("mpi all-to-all probe: %w", err)
		}
		a2aMs = append(a2aMs, ms(d))
	}
	o.set("mpi.alltoall_ms", median(a2aMs))
	return nil
}
