// Package sched implements the paper's a-priori work-sharing schedule
// (Section IV-D): the CreateCommunicationList algorithm (Fig 5), which
// pairs over-loaded sender ranks with under-loaded receiver ranks around
// the mean load, the greedy first-fit variable-size bin-packing used by
// senders to order their local work items between send points, and Steps,
// the one Phase-4 execution order that internal/pipeline runs and
// internal/vtime simulates.
package sched

import "sort"

// Transfer is one work-sharing edge: From sends Amount of modeled work
// time to To.
type Transfer struct {
	From   int
	To     int
	Amount float64
}

// CommList is the global communication list: transfers in the
// deterministic order produced by the paper's algorithm (senders processed
// from most loaded down; each sender's transfers ordered as generated).
type CommList struct {
	Transfers []Transfer
	Mean      float64
}

// CreateCommunicationList runs the paper's Fig 5 algorithm on the modeled
// total time of every rank. Every rank computes this independently and
// deterministically, so no coordination is needed.
func CreateCommunicationList(times []float64) CommList {
	n := len(times)
	var mean float64
	for _, t := range times {
		mean += t
	}
	if n > 0 {
		mean /= float64(n)
	}
	cl := CommList{Mean: mean}
	if n < 2 {
		return cl
	}

	type proc struct {
		id int
		t  float64
	}
	ps := make([]proc, n)
	for i, t := range times {
		ps[i] = proc{id: i, t: t}
	}
	// Sort by time descending; ties broken by id so every rank agrees.
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].t != ps[b].t {
			return ps[a].t > ps[b].t
		}
		return ps[a].id < ps[b].id
	})

	// lr = number of senders (ranks above the mean).
	lr := 0
	for _, p := range ps {
		if p.t > mean {
			lr++
		} else {
			break
		}
	}

	cr := n - 1
	for i := 0; i < lr; i++ {
		for cr >= lr && ps[i].t > mean {
			give := ps[i].t - mean
			room := mean - ps[cr].t
			if room <= 0 {
				cr--
				continue
			}
			if give > room {
				// Fill receiver cr completely; sender keeps going.
				cl.Transfers = append(cl.Transfers, Transfer{From: ps[i].id, To: ps[cr].id, Amount: room})
				ps[i].t -= room
				ps[cr].t = mean
				cr--
			} else {
				// Sender drained; receiver keeps remaining room.
				cl.Transfers = append(cl.Transfers, Transfer{From: ps[i].id, To: ps[cr].id, Amount: give})
				ps[cr].t += give
				ps[i].t = mean
			}
		}
	}
	return cl
}

// SendsFrom returns rank id's outgoing transfers in schedule order.
func (cl CommList) SendsFrom(id int) []Transfer {
	var out []Transfer
	for _, tr := range cl.Transfers {
		if tr.From == id {
			out = append(out, tr)
		}
	}
	return out
}

// RecvsAt returns the sender ranks that will send to id, in the order the
// messages will be received.
func (cl CommList) RecvsAt(id int) []int {
	var out []int
	for _, tr := range cl.Transfers {
		if tr.To == id {
			out = append(out, tr.From)
		}
	}
	return out
}

// BalancedTimes applies the transfers to the input times and returns the
// resulting per-rank loads (useful for predicted-imbalance reporting).
func (cl CommList) BalancedTimes(times []float64) []float64 {
	out := make([]float64, len(times))
	copy(out, times)
	for _, tr := range cl.Transfers {
		out[tr.From] -= tr.Amount
		out[tr.To] += tr.Amount
	}
	return out
}

// Bin is a variable-size bin for PackWork.
type Bin struct {
	// Cap is the bin capacity in modeled work time.
	Cap float64
	// Items receives the indices of packed work items.
	Items []int
	// Load is the packed work time.
	Load float64
}

// PackWork assigns work items (by modeled time) to variable-size bins with
// the greedy first-fit approximation the paper uses: items sorted
// descending, bins sorted ascending by capacity. Items that fit in no bin
// are returned as leftover (the sender computes those after its sends).
// The bins' Items/Load fields are filled in place.
func PackWork(items []float64, bins []*Bin) (leftover []int) {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if items[ia] != items[ib] {
			return items[ia] > items[ib]
		}
		return ia < ib
	})
	bo := make([]*Bin, len(bins))
	copy(bo, bins)
	sort.SliceStable(bo, func(a, b int) bool { return bo[a].Cap < bo[b].Cap })

	for _, it := range order {
		placed := false
		for _, b := range bo {
			if b.Load+items[it] <= b.Cap {
				b.Items = append(b.Items, it)
				b.Load += items[it]
				placed = true
				break
			}
		}
		if !placed {
			leftover = append(leftover, it)
		}
	}
	sort.Ints(leftover)
	return leftover
}

// StepKind is what one step of a rank's Phase-4 list does.
type StepKind uint8

const (
	// Compute runs local item Step.Item.
	Compute StepKind = iota
	// Ship sends local items Step.Items to rank Step.Peer.
	Ship
	// Recv takes the package rank Step.Peer ships here and runs its items.
	Recv
)

// Step is one entry of a rank's Phase-4 execution order. Item and Items
// index the rank's local items as Steps was given them.
type Step struct {
	Kind  StepKind
	Item  int   // Compute
	Peer  int   // Ship: the receiver; Recv: the sender
	Items []int // Ship
}

// Steps is rank's Phase-4 execution order under the schedule; the real
// executor walks it in wall time and the DES in virtual time. totals are
// every rank's modeled loads (what cl was built from) and itemTimes the
// modeled times of rank's local items.
//
// A sender orders its sends by the receiver's availability, its total,
// ascending (the paper: "senders sort their SendList by send time in
// ascending order"). Its items are packed first-fit into one bin per gap
// before a send (capacity: the time between consecutive send points) and
// one per send (capacity: the shipped work); it computes each gap, ships,
// and computes what fit nowhere after its last send. Every other rank
// computes its items in order, then takes one package from each sender
// that ships to it, in schedule order. Without transfers (no sharing, or
// one rank) the list computes the items in order.
func (cl CommList) Steps(totals []float64, rank int, itemTimes []float64) []Step {
	sends := cl.SendsFrom(rank)
	if len(sends) == 0 {
		recvs := cl.RecvsAt(rank)
		steps := make([]Step, len(itemTimes), len(itemTimes)+len(recvs))
		for i := range itemTimes {
			steps[i] = Step{Kind: Compute, Item: i}
		}
		for _, src := range recvs {
			steps = append(steps, Step{Kind: Recv, Peer: src})
		}
		return steps
	}
	sort.SliceStable(sends, func(a, b int) bool { return totals[sends[a].To] < totals[sends[b].To] })
	bins := make([]*Bin, 2*len(sends))
	prev := 0.0
	for k, tr := range sends {
		bins[2*k] = &Bin{Cap: max(totals[tr.To]-prev, 0)}
		bins[2*k+1] = &Bin{Cap: tr.Amount}
		prev = totals[tr.To]
	}
	tail := PackWork(itemTimes, bins)
	steps := make([]Step, 0, len(itemTimes)+len(sends))
	compute := func(items []int) {
		for _, i := range items {
			steps = append(steps, Step{Kind: Compute, Item: i})
		}
	}
	for k, tr := range sends {
		compute(bins[2*k].Items)
		steps = append(steps, Step{Kind: Ship, Peer: tr.To, Items: bins[2*k+1].Items})
	}
	compute(tail)
	return steps
}
