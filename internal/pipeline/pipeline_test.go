package pipeline

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"godtfe/internal/geom"
	"godtfe/internal/mpi"
	"godtfe/internal/synth"
)

func unitBox() geom.AABB {
	return geom.AABB{Min: geom.Vec3{}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
}

// runPipeline executes the framework over `ranks` goroutine-ranks with a
// strided particle assignment and returns all rank results.
func runPipeline(t *testing.T, ranks int, cfg Config, pts, centers []geom.Vec3) []*Result {
	t.Helper()
	results := make([]*Result, ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		var local []geom.Vec3
		for i := c.Rank(); i < len(pts); i += ranks {
			local = append(local, pts[i])
		}
		var ctrs []geom.Vec3
		if c.Rank() == 0 {
			ctrs = centers
		}
		res, err := Run(c, cfg, local, ctrs)
		if err != nil {
			return err
		}
		results[c.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestPipelineComputesAllFields(t *testing.T) {
	pts := synth.HaloSet(6000, unitBox(), synth.DefaultHaloSpec(), 1)
	centers := synth.Uniform(24, unitBox(), 2)
	cfg := Config{
		Box: unitBox(), FieldLen: 0.15, GridN: 12, KeepFields: true, Seed: 3,
	}
	for _, ranks := range []int{1, 4} {
		results := runPipeline(t, ranks, cfg, pts, centers)
		items := 0
		for _, r := range results {
			items += len(r.Items)
			if r.Phases.Total <= 0 {
				t.Fatalf("ranks=%d: no total time", ranks)
			}
		}
		if items != len(centers) {
			t.Fatalf("ranks=%d: computed %d items, want %d", ranks, items, len(centers))
		}
	}
}

func TestPipelineFieldsIndependentOfRankCount(t *testing.T) {
	// The rendered fields must not depend on the decomposition: ghost
	// zones make every item self-contained.
	pts := synth.HaloSet(5000, unitBox(), synth.DefaultHaloSpec(), 4)
	centers := []geom.Vec3{
		{X: 0.3, Y: 0.3, Z: 0.3},
		{X: 0.52, Y: 0.48, Z: 0.51}, // near the 2x2x2 rank boundary
		{X: 0.7, Y: 0.7, Z: 0.7},
		{X: 0.25, Y: 0.75, Z: 0.5},
	}
	cfg := Config{Box: unitBox(), FieldLen: 0.12, GridN: 10, KeepFields: true, Seed: 5}

	collect := func(ranks int) map[geom.Vec3][]float64 {
		out := map[geom.Vec3][]float64{}
		for _, r := range runPipeline(t, ranks, cfg, pts, centers) {
			for _, f := range r.Fields {
				out[f.Center] = f.Grid.Data
			}
		}
		return out
	}
	f1 := collect(1)
	f8 := collect(8)
	if len(f1) != len(centers) || len(f8) != len(centers) {
		t.Fatalf("field counts: %d and %d", len(f1), len(f8))
	}
	for _, ctr := range centers {
		a, b := f1[ctr], f8[ctr]
		if a == nil || b == nil {
			t.Fatalf("missing field at %v", ctr)
		}
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-9*(1+math.Abs(a[i])) {
				t.Fatalf("field at %v differs between 1 and 8 ranks at cell %d: %v vs %v",
					ctr, i, a[i], b[i])
			}
		}
	}
}

func TestPipelineLoadBalanceMovesWork(t *testing.T) {
	// All field centers clustered in one rank's corner: without work
	// sharing one rank does everything; with it, transfers happen and
	// every item still gets computed exactly once.
	pts := synth.HaloSet(8000, unitBox(), synth.DefaultHaloSpec(), 6)
	var centers []geom.Vec3
	for i := 0; i < 18; i++ {
		centers = append(centers, geom.Vec3{
			X: 0.1 + 0.02*float64(i%4),
			Y: 0.1 + 0.02*float64(i/4),
			Z: 0.15,
		})
	}
	cfg := Config{Box: unitBox(), FieldLen: 0.14, GridN: 10, LoadBalance: true, Seed: 7}
	results := runPipeline(t, 8, cfg, pts, centers)
	items, sent, recv := 0, 0, 0
	for _, r := range results {
		items += len(r.Items)
		sent += r.Sent
		recv += r.Received
	}
	if items != len(centers) {
		t.Fatalf("computed %d items, want %d", items, len(centers))
	}
	if sent == 0 || sent != recv {
		t.Fatalf("work sharing inactive or unbalanced: sent=%d recv=%d", sent, recv)
	}
	// Shipped items are flagged.
	shipped := 0
	for _, r := range results {
		for _, it := range r.Items {
			if it.Shipped {
				shipped++
			}
		}
	}
	if shipped != sent {
		t.Fatalf("shipped items %d != sent %d", shipped, sent)
	}
}

func TestPipelineLoadBalancedFieldsMatchUnbalanced(t *testing.T) {
	pts := synth.HaloSet(5000, unitBox(), synth.DefaultHaloSpec(), 8)
	var centers []geom.Vec3
	for i := 0; i < 10; i++ {
		centers = append(centers, geom.Vec3{
			X: 0.2 + 0.05*float64(i%3),
			Y: 0.2 + 0.05*float64(i/3),
			Z: 0.3,
		})
	}
	base := Config{Box: unitBox(), FieldLen: 0.12, GridN: 8, KeepFields: true, Seed: 9}
	lb := base
	lb.LoadBalance = true

	collect := func(cfg Config) map[geom.Vec3][]float64 {
		out := map[geom.Vec3][]float64{}
		for _, r := range runPipeline(t, 4, cfg, pts, centers) {
			for _, f := range r.Fields {
				out[f.Center] = f.Grid.Data
			}
		}
		return out
	}
	a := collect(base)
	b := collect(lb)
	if len(a) != len(centers) || len(b) != len(centers) {
		t.Fatalf("missing fields: %d, %d of %d", len(a), len(b), len(centers))
	}
	for ctr, av := range a {
		bv := b[ctr]
		for i := range av {
			if math.Abs(av[i]-bv[i]) > 1e-9*(1+math.Abs(av[i])) {
				t.Fatalf("LB changed field at %v cell %d", ctr, i)
			}
		}
	}
}

func TestPipelineSparseItemsRenderEmpty(t *testing.T) {
	// A center in an empty corner has too few particles: it must come
	// back as an (all-zero) field rather than an error.
	pts := synth.Uniform(3000, geom.AABB{
		Min: geom.Vec3{X: 0.5, Y: 0.5, Z: 0.5},
		Max: geom.Vec3{X: 1, Y: 1, Z: 1},
	}, 10)
	centers := []geom.Vec3{{X: 0.05, Y: 0.05, Z: 0.05}, {X: 0.75, Y: 0.75, Z: 0.75}}
	cfg := Config{Box: unitBox(), FieldLen: 0.1, GridN: 8, KeepFields: true, Seed: 11}
	results := runPipeline(t, 2, cfg, pts, centers)
	var sparse, dense *Field
	for _, r := range results {
		for i := range r.Fields {
			f := &r.Fields[i]
			if f.Center.X < 0.5 {
				sparse = f
			} else {
				dense = f
			}
		}
	}
	if sparse == nil || dense == nil {
		t.Fatal("missing fields")
	}
	if sparse.Grid.Sum() != 0 {
		t.Fatalf("sparse field sum = %v, want 0", sparse.Grid.Sum())
	}
	if dense.Grid.Sum() <= 0 {
		t.Fatalf("dense field sum = %v, want > 0", dense.Grid.Sum())
	}
}

func TestPipelineSurfaceDensityMagnitude(t *testing.T) {
	// Uniform density box (mean density n/V = 8000): a field of depth
	// 0.12 should integrate to roughly mass ≈ ρ · V_field over its
	// footprint.
	pts := synth.Uniform(8000, unitBox(), 12)
	centers := []geom.Vec3{{X: 0.5, Y: 0.5, Z: 0.5}}
	cfg := Config{Box: unitBox(), FieldLen: 0.12, GridN: 10, KeepFields: true, Seed: 13}
	results := runPipeline(t, 1, cfg, pts, centers)
	g := results[0].Fields[0].Grid
	// Mean surface density = ρ * depth = 8000 * 0.12 = 960.
	mean := g.Sum() / float64(len(g.Data))
	if mean < 500 || mean > 1500 {
		t.Fatalf("mean surface density %v, want ~960", mean)
	}
}

func TestPipelineLatticeParticlesEndToEnd(t *testing.T) {
	// Maximally degenerate input (a perfect lattice) through the whole
	// framework: exercises the symbolic-perturbation triangulation path
	// and the marching kernel's Perturb handling under distribution.
	var pts []geom.Vec3
	const n = 14
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				pts = append(pts, geom.Vec3{
					X: (float64(i) + 0.5) / n,
					Y: (float64(j) + 0.5) / n,
					Z: (float64(k) + 0.5) / n,
				})
			}
		}
	}
	centers := []geom.Vec3{
		{X: 0.5, Y: 0.5, Z: 0.5},
		{X: 0.25, Y: 0.25, Z: 0.75}, // on lattice planes
	}
	cfg := Config{Box: unitBox(), FieldLen: 0.3, GridN: 10, KeepFields: true, Seed: 21}
	results := runPipeline(t, 4, cfg, pts, centers)
	fields := 0
	for _, r := range results {
		for _, f := range r.Fields {
			fields++
			if f.Grid.Sum() <= 0 {
				t.Fatalf("lattice field at %v came back empty", f.Center)
			}
			// Uniform density n^3 over depth 0.3: mean surface density
			// should be ~ n^3 * 0.3 within the pixelization tolerance.
			mean := f.Grid.Sum() / float64(len(f.Grid.Data))
			want := float64(n*n*n) * 0.3
			if mean < 0.5*want || mean > 1.5*want {
				t.Fatalf("lattice field mean %v, want ~%v", mean, want)
			}
		}
	}
	if fields != len(centers) {
		t.Fatalf("computed %d fields, want %d", fields, len(centers))
	}
}

func TestPipelinePeriodicBoundaryField(t *testing.T) {
	// A field centered at the box corner: with periodic ghosts it sees the
	// wrapped neighborhood, so its projected mass matches an equivalent
	// interior field of a statistically uniform box; without them it is
	// starved.
	pts := synth.Uniform(12000, unitBox(), 31)
	corner := []geom.Vec3{{X: 0.01, Y: 0.01, Z: 0.01}}
	interior := []geom.Vec3{{X: 0.5, Y: 0.5, Z: 0.5}}
	run := func(centers []geom.Vec3, periodic bool) float64 {
		cfg := Config{
			Box: unitBox(), FieldLen: 0.14, GridN: 10,
			KeepFields: true, Periodic: periodic, Seed: 33,
		}
		var sum float64
		for _, r := range runPipeline(t, 8, cfg, pts, centers) {
			for _, f := range r.Fields {
				sum += f.Grid.Integral()
			}
		}
		return sum
	}
	ref := run(interior, false)
	clipped := run(corner, false)
	wrapped := run(corner, true)
	if clipped >= 0.8*ref {
		t.Fatalf("clipped corner field should be starved: %v vs interior %v", clipped, ref)
	}
	if wrapped < 0.75*ref || wrapped > 1.25*ref {
		t.Fatalf("periodic corner field %v should match interior %v", wrapped, ref)
	}
}

func TestConfigValidation(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		_, err := Run(c, Config{}, nil, []geom.Vec3{})
		if err == nil {
			t.Error("zero config accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Robustness knobs must be validated with descriptive errors.
	base := Config{Box: unitBox(), FieldLen: 0.1, GridN: 8}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"recovery+loadbalance", func(c *Config) { c.Recovery = true; c.LoadBalance = true }, "LoadBalance"},
		{"negative heartbeat", func(c *Config) { c.HeartbeatEvery = -time.Second }, "HeartbeatEvery"},
		{"negative straggler threshold", func(c *Config) { c.StragglerThreshold = -1 }, "StragglerThreshold"},
		{"sub-unit straggler threshold", func(c *Config) { c.StragglerThreshold = 0.5 }, "exceed 1"},
		{"negative send retries", func(c *Config) { c.MaxSendRetries = -3 }, "MaxSendRetries"},
		{"negative dead timeout", func(c *Config) { c.DeadTimeout = -time.Second }, "DeadTimeout"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		err := cfg.fill()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// Defaults are applied when the knobs are unset.
	cfg := base
	cfg.Recovery = true
	if err := cfg.fill(); err != nil {
		t.Fatalf("valid recovery config rejected: %v", err)
	}
	if cfg.HeartbeatEvery != 10*time.Millisecond || cfg.StragglerThreshold != 4 ||
		cfg.MaxSendRetries != 5 || cfg.DeadTimeout != 50*cfg.HeartbeatEvery {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

// TestWireMessagesOverWorld sends one value of each pipeline message type
// through the runtime the way production does — point-to-point for work
// packages and the recovery protocol, Allgather for the checkpoint lists,
// the Phase 2 samples and the Phase 3 totals — and checks every receiver
// holds exactly what was sent.
func TestWireMessagesOverWorld(t *testing.T) {
	pts := []geom.Vec3{{X: 1, Y: 2, Z: 3}, {X: -4, Y: 0.5}}
	p2p := []struct {
		name string
		msg  any
		zero func() any
	}{
		{"workPackage", &workPackage{Centers: pts[:1], Points: pts}, func() any { return new(workPackage) }},
		{"heartbeat", &heartbeat{Rank: 2, Ward: -1, Done: 7, PredDone: 0.5, ActualDone: 0.75, Finished: true, NoCkpt: true},
			func() any { return new(heartbeat) }},
		{"control", &control{Kind: ctlRedispatch, Ward: 3, From: 2}, func() any { return new(control) }},
		{"halo", &pts, func() any { return new([]geom.Vec3) }},
	}
	for _, c := range p2p {
		t.Run(c.name, func(t *testing.T) {
			err := mpi.Run(2, func(comm *mpi.Comm) error {
				if comm.Rank() == 0 {
					return comm.Send(1, tagWork, c.msg)
				}
				got := c.zero()
				if _, err := comm.Recv(0, tagWork, got); err != nil {
					return err
				}
				if !reflect.DeepEqual(got, c.msg) {
					return fmt.Errorf("sent %+v, received %+v", c.msg, got)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}

	t.Run("collectives", func(t *testing.T) {
		const ranks = 3
		meta := func(r int) ckptMeta {
			return ckptMeta{Centers: pts[:r%2+1], Sample: pts[r%2], HasSample: r != 1}
		}
		smp := func(r int) sample { return sample{N: float64(100 * r), TTri: 0.1 * float64(r), TRender: 0.2} }
		err := mpi.Run(ranks, func(comm *mpi.Comm) error {
			r := comm.Rank()
			metas, err := mpi.Allgather(comm, meta(r))
			if err != nil {
				return err
			}
			samples, err := mpi.Allgather(comm, smp(r))
			if err != nil {
				return err
			}
			totals, err := mpi.Allgather(comm, 1.5*float64(r))
			if err != nil {
				return err
			}
			for k := 0; k < ranks; k++ {
				if !reflect.DeepEqual(metas[k], meta(k)) || samples[k] != smp(k) || totals[k] != 1.5*float64(k) {
					return fmt.Errorf("rank %d slot %d: %+v %+v %v", r, k, metas[k], samples[k], totals[k])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
