package experiments

import (
	"math/rand"

	"godtfe/internal/domain"
	"godtfe/internal/geom"
	"godtfe/internal/stats"
	"godtfe/internal/vtime"
)

// scalingStudy is the shared machinery behind Figs 9, 10, 12 and 13: a set
// of field centers with per-item particle counts, executed across a rank
// sweep in the virtual-time executor with costs from the real-kernel
// calibration.
type scalingStudy struct {
	Box     geom.AABB
	Centers []geom.Vec3
	Counts  []int
	Cal     *calibration
	// NoiseSigma is the log-normal model error of actual vs predicted
	// item times (the paper's Fig 11 distributions).
	NoiseSigma float64
	// DegenerateEvery injects one grossly mispredicted item per this many
	// items (0 = none): the paper's "degenerate point configurations"
	// that break the 16k-rank run.
	DegenerateEvery int
	DegenerateBlow  float64
	// TotalParticles drives the partition-phase IO model.
	TotalParticles float64
	// IoPerPart is the partition-phase read/exchange cost per particle
	// (split over ranks); 0 selects the default for analysis-cluster-sized
	// datasets.
	IoPerPart float64
	Seed      int64
}

// phaseRow is one rank-count's outcome.
type phaseRow struct {
	Procs                  int
	Partition, Model       float64
	Tri, Render, WorkShare float64
	Total                  float64
	UnbalancedStd          float64
	BalancedStd            float64
	Transfers              int
}

// Assumed, not measured: the partition and model phases the DES does not
// execute are priced with these constants (reportScaling prints them).
const (
	ioFloor    = 0.4  // seconds: metadata + contention floor
	countCost  = 5e-4 // seconds per local work item counted
	gatherCost = 5e-5 // seconds per rank in the allgather
)

// commModel mirrors an InfiniBand-ish interconnect.
func commModel() vtime.CommModel {
	return vtime.CommModel{Latency: 5e-6, BytesPerSec: 3e9, SendOverhead: 2e-5}
}

// run executes the study for every rank count.
func (s *scalingStudy) run(procs []int, loadBalance bool) ([]phaseRow, error) {
	rng := rand.New(rand.NewSource(s.Seed))
	n := len(s.Centers)

	// Per-item base costs (independent of rank count).
	pred := make([]float64, n)
	actual := make([]float64, n)
	triFrac := make([]float64, n)
	bytes := make([]int64, n)
	for i, c := range s.Counts {
		fc := float64(c)
		pTri := s.Cal.Model.Tri.Predict(fc)
		pRend := s.Cal.Model.Interp.Predict(fc)
		pred[i] = pTri + pRend
		noise := lognoise(rng, s.NoiseSigma)
		actual[i] = pred[i] * noise
		if s.DegenerateEvery > 0 && i%s.DegenerateEvery == s.DegenerateEvery/2 {
			actual[i] *= s.DegenerateBlow
		}
		if pred[i] > 0 {
			triFrac[i] = pTri / pred[i]
		}
		bytes[i] = int64(24*c) + 64
	}

	var rows []phaseRow
	for _, p := range procs {
		dec, err := domain.NewDecomp(s.Box, p, 0)
		if err != nil {
			return nil, err
		}
		items := make([]vtime.Item, n)
		for i, ctr := range s.Centers {
			items[i] = vtime.Item{
				Rank:      dec.OwnerOf(ctr),
				Predicted: pred[i],
				Actual:    actual[i],
				Bytes:     bytes[i],
			}
		}

		// Phase models for partition and modeling (the phases the DES does
		// not execute): partition = IO floor + per-rank read/exchange
		// share (it flattens at high P exactly as the paper observes);
		// modeling = the constant random test problem + the per-rank
		// counting share + an allgather term growing with P.
		meanItem := 0.0
		for _, a := range actual {
			meanItem += a
		}
		meanItem /= float64(n)
		ioPerPart := s.IoPerPart
		if ioPerPart == 0 {
			ioPerPart = 1e-4
		}
		partition := ioFloor + ioPerPart*s.TotalParticles/float64(p)
		modelPh := meanItem + countCost*float64(n)/float64(p) + gatherCost*float64(p)

		out := vtime.Simulate(vtime.Config{
			Ranks:       p,
			Comm:        commModel(),
			LoadBalance: loadBalance,
		}, items)

		// Split each rank's compute into tri/render using the item mix it
		// executed; approximate with the global tri fraction weighted by
		// actual time.
		var triTot, allTot float64
		for i := range actual {
			triTot += actual[i] * triFrac[i]
			allTot += actual[i]
		}
		gTriFrac := 0.0
		if allTot > 0 {
			gTriFrac = triTot / allTot
		}
		// The phase columns are the critical rank's own: its compute split
		// by the tri fraction, and its own wait and send time. They sum to
		// its Finish, which is the makespan, so the row sums to its total.
		var crit vtime.RankOutcome
		for _, ro := range out.Ranks {
			if ro.Finish > crit.Finish {
				crit = ro
			}
		}
		unb, bal := out.ImbalanceStats()
		rows = append(rows, phaseRow{
			Procs:         p,
			Partition:     partition,
			Model:         modelPh,
			Tri:           crit.Compute * gTriFrac,
			Render:        crit.Compute * (1 - gTriFrac),
			WorkShare:     crit.Wait + crit.Send,
			Total:         partition + modelPh + out.Makespan,
			UnbalancedStd: unb,
			BalancedStd:   bal,
			Transfers:     out.Transfers,
		})
	}
	return rows, nil
}

// report renders the standard phase/speedup table.
func reportScaling(r *Report, rows []phaseRow) {
	r.Rowf("%-6s %10s %10s %12s %12s %11s %10s %10s", "procs",
		"partition", "model", "triangulate", "grid-render", "work-share", "total", "transfers")
	for _, row := range rows {
		r.Rowf("%-6d %9.2fs %9.2fs %11.2fs %11.2fs %10.2fs %9.2fs %10d",
			row.Procs, row.Partition, row.Model, row.Tri, row.Render,
			row.WorkShare, row.Total, row.Transfers)
	}
	procs := make([]int, len(rows))
	tot := make([]float64, len(rows))
	part := make([]float64, len(rows))
	mod := make([]float64, len(rows))
	work := make([]float64, len(rows))
	for i, row := range rows {
		procs[i] = row.Procs
		tot[i] = row.Total
		part[i] = row.Partition
		mod[i] = row.Model
		work[i] = row.Tri + row.Render
	}
	sTot := stats.Speedup(procs, tot)
	sPart := stats.Speedup(procs, part)
	sMod := stats.Speedup(procs, mod)
	sWork := stats.Speedup(procs, work)
	r.Rowf("%-6s %10s %10s %12s %12s", "procs", "S(total)", "S(part)", "S(model)", "S(tri+grid)")
	for i := range rows {
		r.Rowf("%-6d %10.1f %10.1f %12.1f %12.1f", procs[i], sTot[i], sPart[i], sMod[i], sWork[i])
	}
	r.Notef("tri, grid-render and work-share are the critical rank's; the row sums to its total")
	r.Notef("assumed, not measured: partition = %gs + read share, model = test item + %gs/item counted + %gs/rank allgather",
		ioFloor, countCost, gatherCost)
}
