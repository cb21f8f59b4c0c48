// Virtual-time simulation of the fault-tolerant Phase 4 executor
// (internal/pipeline recovery mode) at arbitrary rank counts. The real
// protocol's behaviour under faults — detection latency bounded by the
// heartbeat interval, buddy recomputation of a dead rank's items,
// straggler yield against the model-predicted costs — is a deterministic
// function of per-item costs and the fault schedule, which this simulator
// evaluates exactly, so recovery overhead can be measured at the paper's
// Fig 13 scale (4k–16k ranks) on one core.
package vtime

// SimCrash kills a rank at a virtual time.
type SimCrash struct {
	Rank int
	At   float64 // seconds into Phase 4
}

// RecoveryConfig configures a fault-injected simulation.
type RecoveryConfig struct {
	Ranks int
	Comm  CommModel
	// HeartbeatInterval bounds failure/straggler detection latency
	// (mirrors pipeline.Config.HeartbeatEvery).
	HeartbeatInterval float64
	// StragglerThreshold mirrors pipeline.Config.StragglerThreshold: a
	// rank is told to yield once its cumulative actual time exceeds
	// threshold × its cumulative predicted time. <=1 disables detection.
	StragglerThreshold float64
	// CkptBytesPerRank is the buddy-checkpoint volume each rank ships
	// before execution (the halo copy); it adds a one-off ring-exchange
	// cost to every rank.
	CkptBytesPerRank int64
	// Crashes is the fault schedule. A crashed rank's completed items
	// are lost with it (its Result never returns) and its full list is
	// recomputed by its ring buddy; if the buddy also crashes, the
	// ward's items are unrecoverable.
	Crashes []SimCrash
	// StragglerFactor multiplies the item times of afflicted ranks
	// (values > 1).
	StragglerFactor map[int]float64
}

// RecoveryOutcome is the simulated result.
type RecoveryOutcome struct {
	// Makespan is the completion time of the slowest surviving rank,
	// including checkpoint cost and recovery work.
	Makespan float64
	// Baseline is the failure-free, checkpoint-free makespan of the same
	// items; Overhead = Makespan - Baseline.
	Baseline float64
	Overhead float64
	// CkptTime is the per-rank checkpoint ring cost included in Makespan.
	CkptTime float64
	// Item accounting: completed on owners, recomputed by buddies
	// (recovery work, including a dead rank's lost partial progress),
	// and unrecoverable.
	ItemsCompleted int
	ItemsRecovered int
	ItemsLost      int
	// LostWork is wasted compute: items a dead rank finished before
	// crashing (recomputed elsewhere) plus partial progress.
	LostWork float64
	// RecoveredRanks and LostRanks count wards by outcome.
	RecoveredRanks int
	LostRanks      int
	// MeanDetectionLatency is the average fault-to-redispatch delay.
	MeanDetectionLatency float64
}

// rankSim is one rank's simulated own-work timeline.
type rankSim struct {
	items   []int // global item indices, execution order
	factor  float64
	crashed bool
	crashAt float64

	ownFinish float64 // when its own (possibly truncated) work ends
	doneItems int     // items completed on this rank
	yieldAt   int     // pending index it yields at (-1: runs to completion)
	detect    float64 // when the coordinator learns it needs recovery (-1: never)
	redisp    []int   // items needing recomputation by the buddy
}

// SimulateRecovery runs the virtual fault-tolerant execution.
func SimulateRecovery(cfg RecoveryConfig, items []Item) RecoveryOutcome {
	n := cfg.Ranks
	out := RecoveryOutcome{}

	crashOf := make(map[int]float64, len(cfg.Crashes))
	for _, cr := range cfg.Crashes {
		if cr.Rank >= 0 && cr.Rank < n {
			if at, ok := crashOf[cr.Rank]; !ok || cr.At < at {
				crashOf[cr.Rank] = cr.At
			}
		}
	}

	sims := make([]rankSim, n)
	for r := range sims {
		sims[r].factor = 1
		sims[r].yieldAt = -1
		sims[r].detect = -1
		if f, ok := cfg.StragglerFactor[r]; ok && f > 1 {
			sims[r].factor = f
		}
		if at, ok := crashOf[r]; ok {
			sims[r].crashed = true
			sims[r].crashAt = at
		}
	}
	for i, it := range items {
		if it.Rank >= 0 && it.Rank < n {
			sims[it.Rank].items = append(sims[it.Rank].items, i)
		}
	}

	// Baseline: failure-free, factor-free serial execution per rank.
	for r := range sims {
		var busy float64
		for _, i := range sims[r].items {
			busy += items[i].Actual
		}
		if busy > out.Baseline {
			out.Baseline = busy
		}
	}

	out.CkptTime = cfg.Comm.SendOverhead + cfg.Comm.Transit(cfg.CkptBytesPerRank)

	// Pass 1: each rank's own timeline — crash truncation and straggler
	// yield both derive from the cumulative actual/predicted series.
	var detections []float64
	for r := range sims {
		s := &sims[r]
		clock := out.CkptTime
		var predCum float64
		yieldArmed := cfg.StragglerThreshold > 1 && s.factor > 1 && r != 0
		for k, gi := range s.items {
			cost := items[gi].Actual * s.factor
			if s.crashed && clock+cost > s.crashAt {
				// Dies mid-item: everything it did is lost with it.
				s.ownFinish = s.crashAt
				s.detect = s.crashAt + cfg.HeartbeatInterval
				s.redisp = s.items // full re-execution
				out.LostWork += s.crashAt - out.CkptTime
				break
			}
			clock += cost
			predCum += items[gi].Predicted
			s.doneItems = k + 1
			if yieldArmed && (clock-out.CkptTime) > cfg.StragglerThreshold*predCum {
				// Detected after this item's heartbeat; yields at once.
				s.yieldAt = k + 1
				s.detect = clock + cfg.HeartbeatInterval
				s.redisp = s.items[k+1:]
				s.ownFinish = clock
				break
			}
		}
		if s.crashed && s.doneItems == len(s.items) && len(s.items) > 0 {
			// Crash scheduled after all work: still fatal to its Result.
			s.ownFinish = s.crashAt
			s.detect = s.crashAt + cfg.HeartbeatInterval
			s.redisp = s.items
			s.doneItems = 0
			out.LostWork += clock - out.CkptTime
		} else if s.crashed && s.doneItems < len(s.items) && s.redisp == nil {
			// Crash before the first item completed.
			s.ownFinish = s.crashAt
			s.detect = s.crashAt + cfg.HeartbeatInterval
			s.redisp = s.items
		} else if !s.crashed && s.yieldAt < 0 {
			s.ownFinish = clock
		}
		if s.crashed {
			s.doneItems = 0 // its Result never returns
		}
		if s.detect >= 0 {
			detections = append(detections, cfg.HeartbeatInterval)
		}
		out.ItemsCompleted += s.doneItems
	}

	// Pass 2: buddies execute re-dispatched work after their own.
	finish := make([]float64, n)
	for r := range sims {
		finish[r] = sims[r].ownFinish
	}
	for r := range sims {
		s := &sims[r]
		if len(s.redisp) == 0 {
			continue
		}
		buddy := (r + 1) % n
		if sims[buddy].crashed {
			out.ItemsLost += len(s.redisp)
			out.LostRanks++
			continue
		}
		start := finish[buddy]
		if s.detect > start {
			start = s.detect
		}
		var work float64
		for _, gi := range s.redisp {
			work += items[gi].Actual * sims[buddy].factor
		}
		finish[buddy] = start + work
		out.ItemsRecovered += len(s.redisp)
		out.RecoveredRanks++
	}

	for r := range sims {
		if sims[r].crashed {
			continue
		}
		if finish[r] > out.Makespan {
			out.Makespan = finish[r]
		}
	}
	out.Overhead = out.Makespan - out.Baseline
	if len(detections) > 0 {
		var sum float64
		for _, d := range detections {
			sum += d
		}
		out.MeanDetectionLatency = sum / float64(len(detections))
	}
	return out
}
