package pipeline

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"godtfe/internal/geom"
	"godtfe/internal/model"
	"godtfe/internal/mpi"
	"godtfe/internal/synth"
	"godtfe/internal/vtime"
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
	// The rendered fields must not depend on the decomposition, bit for
	// bit: ghost zones make every item self-contained, and the build sees
	// an item's points in the same order whichever rank holds them or
	// computes the item (LoadBalance ships some).
	pts := synth.HaloSet(5000, unitBox(), synth.DefaultHaloSpec(), 4)
	centers := []geom.Vec3{
		{X: 0.3, Y: 0.3, Z: 0.3},
		{X: 0.52, Y: 0.48, Z: 0.51}, // near the 2x2x2 rank boundary
		{X: 0.7, Y: 0.7, Z: 0.7},
		{X: 0.25, Y: 0.75, Z: 0.5},
	}
	// Eight more in one rank's octant, so work sharing has items to ship.
	for i := 0; i < 8; i++ {
		centers = append(centers, geom.Vec3{X: 0.15 + 0.03*float64(i%4), Y: 0.15 + 0.05*float64(i/4), Z: 0.2})
	}

	for _, lb := range []bool{false, true} {
		cfg := Config{Box: unitBox(), FieldLen: 0.12, GridN: 10, KeepFields: true, LoadBalance: lb, Seed: 5}
		shipped := 0
		collect := func(ranks int) map[geom.Vec3][]float64 {
			out := map[geom.Vec3][]float64{}
			for _, r := range runPipeline(t, ranks, cfg, pts, centers) {
				for _, f := range r.Fields {
					out[f.Center] = f.Grid.Data
				}
				for _, it := range r.Items {
					if it.Shipped {
						shipped++
					}
				}
			}
			return out
		}
		f1 := collect(1)
		f8 := collect(8)
		if len(f1) != len(centers) || len(f8) != len(centers) {
			t.Fatalf("LoadBalance=%v: field counts: %d and %d", lb, len(f1), len(f8))
		}
		if lb && shipped == 0 {
			t.Fatal("LoadBalance=true shipped no item: the shipped path is not covered")
		}
		for _, ctr := range centers {
			a, b := f1[ctr], f8[ctr]
			if a == nil || b == nil {
				t.Fatalf("LoadBalance=%v: missing field at %v", lb, ctr)
			}
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("LoadBalance=%v: field at %v differs between 1 and 8 ranks at cell %d: %v vs %v",
						lb, ctr, i, a[i], b[i])
				}
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

// TestPhase4MatchesDES runs the real executor and the DES on the same
// predictions and asks for the same schedule: both walk sched.Steps, so
// every rank's executed predicted load equals the DES's BalancedLoads and
// the shipped item counts agree. Each executed item enters the DES under
// its status's Owner with PredTri+PredRender as both its predicted and
// actual cost, in the centres' order (the order Phase 1 gives each rank's
// local items); each rank's Phase-2 test item, Items[0] when it owns any,
// carries no prediction and is left out. Bytes are 1 per item, so the
// DES's BytesMoved counts shipped items.
func TestPhase4MatchesDES(t *testing.T) {
	pts := synth.HaloSet(8000, unitBox(), synth.DefaultHaloSpec(), 12)
	var centers []geom.Vec3
	for i := 0; i < 36; i++ {
		// Most centres crowd one corner; a few spread out.
		c := geom.Vec3{X: 0.12 + 0.03*float64(i%4), Y: 0.12 + 0.03*float64(i/4%3), Z: 0.15 + 0.03*float64(i/12)}
		if i%6 == 5 {
			c = geom.Vec3{X: 0.3 + 0.1*float64(i%5), Y: 0.8 - 0.1*float64(i%4), Z: 0.7}
		}
		centers = append(centers, c)
	}
	index := map[geom.Vec3]int{}
	for i, c := range centers {
		index[c] = i
	}
	cfg := Config{Box: unitBox(), FieldLen: 0.12, GridN: 6, LoadBalance: true, Seed: 3}
	for _, ranks := range []int{2, 4, 8} {
		results := runPipeline(t, ranks, cfg, pts, centers)
		items := make([]vtime.Item, len(centers))
		placed := make([]bool, len(centers))
		executed := make([]float64, ranks)
		sent, received := 0, 0
		for r, res := range results {
			sent += res.Sent
			received += res.Received
			skip := 0
			if res.LocalWork > 0 {
				skip = 1
			}
			for k := skip; k < len(res.Items); k++ {
				it, st := res.Items[k], res.Status[k]
				p := it.PredTri + it.PredRender
				if p <= 0 || st.Center != it.Center {
					t.Fatalf("ranks=%d rank %d item %d: prediction %v, status %+v", ranks, r, k, p, st)
				}
				i := index[it.Center]
				items[i] = vtime.Item{Rank: st.Owner, Predicted: p, Actual: p, Bytes: 1}
				placed[i] = true
				executed[r] += p
			}
		}
		// The test items stay out of the DES, with a rank it does not have.
		for i := range items {
			if !placed[i] {
				items[i].Rank = -1
			}
		}
		out := vtime.Simulate(vtime.Config{Ranks: ranks, LoadBalance: true}, items)
		if out.Transfers == 0 {
			t.Fatalf("ranks=%d: the schedule shares no work; the test checks nothing", ranks)
		}
		for r := range executed {
			if want := out.BalancedLoads[r]; math.Abs(executed[r]-want) > 1e-9*want {
				t.Errorf("ranks=%d rank %d: executed load %v, DES %v", ranks, r, executed[r], want)
			}
		}
		if int64(sent) != out.BytesMoved || received != sent {
			t.Errorf("ranks=%d: sent %d, received %d items; the DES ships %d", ranks, sent, received, out.BytesMoved)
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

// TestFitModelRejectsFallingCost: four samples whose render time falls as
// the particle count rises fit a negative interpolation exponent. Phase 2
// must count that fit as failed and take the proportional fallback, whose
// predicted cost grows with n; so must a triangulation fit with no slope.
func TestFitModelRejectsFallingCost(t *testing.T) {
	ns := []float64{1000, 2000, 4000, 8000}
	tts := []float64{0.010, 0.021, 0.044, 0.090}
	falling := []float64{0.080, 0.040, 0.020, 0.010}
	if fit, err := model.Fit(ns, tts, falling); err != nil || fit.Interp.Beta >= 0 {
		t.Fatalf("samples no longer fit a falling cost: %+v, %v", fit, err)
	}
	for name, tc := range map[string][2][]float64{
		"negative beta": {tts, falling},
		"zero tri":      {make([]float64, len(ns)), []float64{0.010, 0.020, 0.040, 0.080}},
	} {
		wm, ok := fitModel(ns, tc[0], tc[1])
		if ok || wm != fallbackModel(ns, tc[0], tc[1]) {
			t.Errorf("%s: fit %+v accepted (ok %v), want the fallback", name, wm, ok)
		}
		if !(wm.Predict(8000) > wm.Predict(1000)) {
			t.Errorf("%s: predicted cost %v at n=8000 is not above %v at n=1000", name, wm.Predict(8000), wm.Predict(1000))
		}
	}
	if wm, ok := fitModel(ns, tts, []float64{0.010, 0.020, 0.040, 0.080}); !ok || wm.Interp.Beta <= 0 {
		t.Fatalf("a rising cost lost its fit: %+v, ok %v", wm, ok)
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

	// Impossible sizes must be rejected with descriptive errors.
	base := Config{Box: unitBox(), FieldLen: 0.1, GridN: 8}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero FieldLen", func(c *Config) { c.FieldLen = 0 }, "FieldLen"},
		{"NaN FieldLen", func(c *Config) { c.FieldLen = math.NaN() }, "FieldLen"},
		{"infinite FieldLen", func(c *Config) { c.FieldLen = math.Inf(1) }, "FieldLen"},
		{"negative GridN", func(c *Config) { c.GridN = -1 }, "GridN"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		err := cfg.check()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

}

// TestWireMessagesOverWorld sends one value of each pipeline message type
// through the runtime the way production does — point-to-point for work
// packages, Allgather for the Phase 2 samples and the Phase 3 totals — and
// checks every receiver holds exactly what was sent.
func TestWireMessagesOverWorld(t *testing.T) {
	pts := []geom.Vec3{{X: 1, Y: 2, Z: 3}, {X: -4, Y: 0.5}}
	p2p := []struct {
		name string
		msg  any
		zero func() any
	}{
		{"workPackage", &workPackage{Centers: pts[:1], Points: pts}, func() any { return new(workPackage) }},
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
		smp := func(r int) sample { return sample{N: float64(100 * r), TTri: 0.1 * float64(r), TRender: 0.2} }
		err := mpi.Run(ranks, func(comm *mpi.Comm) error {
			r := comm.Rank()
			samples, err := mpi.Allgather(comm, smp(r))
			if err != nil {
				return err
			}
			totals, err := mpi.Allgather(comm, 1.5*float64(r))
			if err != nil {
				return err
			}
			for k := 0; k < ranks; k++ {
				if samples[k] != smp(k) || totals[k] != 1.5*float64(k) {
					return fmt.Errorf("rank %d slot %d: %+v %v", r, k, samples[k], totals[k])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
