package experiments

import (
	"math"
	"math/rand"
	"testing"

	"godtfe/internal/domain"
	"godtfe/internal/geom"
	"godtfe/internal/model"
	"godtfe/internal/vtime"
)

// TestScalingColumnsSumToTotal pins the scaling report's accounting on a
// fixed calibration: the phase columns sum to the row's total, and the
// total is partition + model + the simulated makespan, which already holds
// every rank's work-sharing wait and send time (counted once).
func TestScalingColumnsSumToTotal(t *testing.T) {
	box := geom.AABB{Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	rng := rand.New(rand.NewSource(4))
	centers := make([]geom.Vec3, 600)
	counts := make([]int, len(centers))
	for i := range centers {
		// Crowd the low corner so the schedule has senders and receivers.
		centers[i] = geom.Vec3{X: rng.Float64() * rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		counts[i] = 2000 + rng.Intn(20000)
	}
	cal := &calibration{Model: model.WorkModel{
		Tri:    model.TriModel{C: 5e-7},
		Interp: model.PowerModel{Alpha: 2e-4, Beta: 0.55},
	}}
	s := &scalingStudy{
		Box: box, Centers: centers, Counts: counts, Cal: cal,
		DegenerateEvery: 37, DegenerateBlow: 12,
		TotalParticles: 1e6, Seed: 9,
	}
	procs := []int{1, 8, 27, 64}
	for _, lb := range []bool{false, true} {
		rows, err := s.run(procs, lb)
		if err != nil {
			t.Fatal(err)
		}
		var shared float64
		for k, row := range rows {
			sum := row.Partition + row.Model + row.Tri + row.Render + row.WorkShare
			if math.Abs(sum-row.Total) > 1e-9*row.Total {
				t.Errorf("lb=%v procs=%d: columns sum to %v, total %v", lb, row.Procs, sum, row.Total)
			}
			out := vtime.Simulate(vtime.Config{Ranks: procs[k], Comm: commModel(), LoadBalance: lb},
				studyItems(t, s, procs[k]))
			if got := row.Total - row.Partition - row.Model; math.Abs(got-out.Makespan) > 1e-9*out.Makespan {
				t.Errorf("lb=%v procs=%d: total holds %v of execution, makespan is %v", lb, row.Procs, got, out.Makespan)
			}
			shared += row.WorkShare
		}
		if lb && shared == 0 {
			t.Fatal("no work-sharing time at any rank count: the test checks nothing")
		}
	}
}

// studyItems rebuilds the DES items scalingStudy.run feeds Simulate at p
// ranks, for a study without model noise.
func studyItems(t *testing.T, s *scalingStudy, p int) []vtime.Item {
	t.Helper()
	if s.NoiseSigma != 0 {
		t.Fatal("studyItems assumes NoiseSigma 0")
	}
	dec, err := domain.NewDecomp(s.Box, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]vtime.Item, len(s.Centers))
	for i, ctr := range s.Centers {
		fc := float64(s.Counts[i])
		pred := s.Cal.Model.Tri.Predict(fc) + s.Cal.Model.Interp.Predict(fc)
		actual := pred
		if s.DegenerateEvery > 0 && i%s.DegenerateEvery == s.DegenerateEvery/2 {
			actual *= s.DegenerateBlow
		}
		items[i] = vtime.Item{Rank: dec.OwnerOf(ctr), Predicted: pred, Actual: actual, Bytes: int64(24*s.Counts[i]) + 64}
	}
	return items
}
