// Package vtime is a deterministic virtual-time simulator (a DES) of the
// framework's execution phase at arbitrary rank counts. Figs 9, 10, 12 and
// 13 of the paper run on up to 16,384 cores; what they measure, though, is
// schedule quality — per-rank completion times given per-item costs and
// the work-sharing schedule — which is a deterministic function this
// package evaluates exactly. Per-item costs are calibrated from the real
// kernel (see internal/experiments), so shapes are honest.
//
// The simulator walks the same per-rank sched.Steps list that
// internal/pipeline executes: a Compute advances the rank's clock by the
// item's actual cost, a Ship costs its sender a packaging overhead and
// arrives after a latency + bytes/bandwidth transit, and a Recv waits for
// that arrival before computing the shipped items.
package vtime

import (
	"slices"

	"godtfe/internal/sched"
	"godtfe/internal/stats"
)

// Item is one work item (a surface-density field to compute).
type Item struct {
	Rank      int     // owning rank
	Predicted float64 // modeled time, drives the schedule
	Actual    float64 // true time, advances the clock
	Bytes     int64   // message size if shipped
}

// CommModel is the interconnect cost model.
type CommModel struct {
	Latency      float64 // per-message seconds
	BytesPerSec  float64 // bandwidth
	SendOverhead float64 // sender-side per-message packaging time
}

// Transit returns the in-flight time of a message.
func (m CommModel) Transit(bytes int64) float64 {
	t := m.Latency
	if m.BytesPerSec > 0 {
		t += float64(bytes) / m.BytesPerSec
	}
	return t
}

// Config configures a simulation.
type Config struct {
	Ranks       int
	Comm        CommModel
	LoadBalance bool
}

// RankOutcome is one rank's simulated execution.
type RankOutcome struct {
	Compute float64 // busy compute time (actual item costs)
	Wait    float64 // receiver time blocked on not-yet-arrived messages
	Send    float64 // sender-side packaging overhead
	Finish  float64 // completion time
}

// Outcome is the full simulation result.
type Outcome struct {
	Ranks      []RankOutcome
	Makespan   float64 // max Finish
	Transfers  int
	BytesMoved int64
	// PredictedLoads are the per-rank modeled loads before sharing
	// (the paper's "unbalanced" series in Fig 10).
	PredictedLoads []float64
	// BalancedLoads are per-rank busy compute times after sharing.
	BalancedLoads []float64
}

// Simulate runs the virtual execution. Every rank's steps come from one
// communication list built on the predicted loads; ranks without a Recv
// step are walked first, so every arrival is known before a receiver
// needs it.
func Simulate(cfg Config, items []Item) Outcome {
	n := cfg.Ranks
	out := Outcome{
		Ranks:          make([]RankOutcome, n),
		PredictedLoads: make([]float64, n),
		BalancedLoads:  make([]float64, n),
	}
	perRank := make([][]int, n)
	for i, it := range items {
		if it.Rank < 0 || it.Rank >= n {
			continue
		}
		perRank[it.Rank] = append(perRank[it.Rank], i)
		out.PredictedLoads[it.Rank] += it.Predicted
	}
	var cl sched.CommList
	if cfg.LoadBalance {
		cl = sched.CreateCommunicationList(out.PredictedLoads)
	}
	steps := make([][]sched.Step, n)
	for r := range steps {
		times := make([]float64, len(perRank[r]))
		for k, i := range perRank[r] {
			times[k] = items[i].Predicted
		}
		steps[r] = cl.Steps(out.PredictedLoads, r, times)
	}

	// A shipped package: its Ship step and its arrival time, keyed by
	// (sender, receiver), a pair the communication list joins at most once.
	type message struct {
		ship    sched.Step
		arrival float64
	}
	msgs := make(map[[2]int]message)
	walk := func(r int) {
		ro := &out.Ranks[r]
		clock := 0.0
		run := func(i int) {
			clock += items[i].Actual
			ro.Compute += items[i].Actual
		}
		for _, st := range steps[r] {
			switch st.Kind {
			case sched.Compute:
				run(perRank[r][st.Item])
			case sched.Ship:
				var bytes int64
				for _, k := range st.Items {
					bytes += items[perRank[r][k]].Bytes
				}
				clock += cfg.Comm.SendOverhead
				ro.Send += cfg.Comm.SendOverhead
				msgs[[2]int{r, st.Peer}] = message{ship: st, arrival: clock + cfg.Comm.Transit(bytes)}
				out.Transfers++
				out.BytesMoved += bytes
			case sched.Recv:
				m := msgs[[2]int{st.Peer, r}]
				if m.arrival > clock {
					ro.Wait += m.arrival - clock
					clock = m.arrival
				}
				for _, k := range m.ship.Items {
					run(perRank[st.Peer][k])
				}
			}
		}
		ro.Finish = clock
		out.BalancedLoads[r] = ro.Compute
		if clock > out.Makespan {
			out.Makespan = clock
		}
	}
	receives := func(r int) bool {
		return slices.ContainsFunc(steps[r], func(st sched.Step) bool { return st.Kind == sched.Recv })
	}
	for _, second := range []bool{false, true} {
		for r := range steps {
			if receives(r) == second {
				walk(r)
			}
		}
	}
	return out
}

// ImbalanceStats returns the normalized standard deviation of the
// predicted (unbalanced) and achieved (balanced) per-rank loads — the two
// series of the paper's Fig 10.
func (o Outcome) ImbalanceStats() (unbalanced, balanced float64) {
	return stats.Summarize(o.PredictedLoads).NormalizedStd(),
		stats.Summarize(o.BalancedLoads).NormalizedStd()
}
