package vtime

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"godtfe/internal/sched"
)

// simulateRef is Simulate as it stood before the DES walked sched.Steps,
// kept verbatim (its sender planner copied alongside) as the reference
// TestSimulateMatchesReference holds the step walk to.
func simulateRef(cfg Config, items []Item) Outcome {
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

	if !cfg.LoadBalance {
		for r := 0; r < n; r++ {
			var busy float64
			for _, i := range perRank[r] {
				busy += items[i].Actual
			}
			out.Ranks[r] = RankOutcome{Compute: busy, Finish: busy}
			out.BalancedLoads[r] = busy
			if out.Ranks[r].Finish > out.Makespan {
				out.Makespan = out.Ranks[r].Finish
			}
		}
		return out
	}

	cl := sched.CreateCommunicationList(out.PredictedLoads)

	// Senders: build plans, walk their timeline, record message arrivals.
	type message struct {
		items   []int // global item indices shipped
		arrival float64
	}
	// Keyed by (sender, receiver): each pair transfers at most once; the
	// receiver drains them in its RecvsAt order.
	msgs := make(map[[2]int]message)
	isSender := make([]bool, n)
	for r := 0; r < n; r++ {
		sends := cl.SendsFrom(r)
		if len(sends) == 0 {
			continue
		}
		isSender[r] = true
		itemTimes := make([]float64, len(perRank[r]))
		for k, i := range perRank[r] {
			itemTimes[k] = items[i].Predicted
		}
		avail := make([]float64, len(sends))
		for k, tr := range sends {
			avail[k] = out.PredictedLoads[tr.To]
		}
		plan := planSenderRef(itemTimes, sends, avail)

		ro := &out.Ranks[r]
		clock := 0.0
		for k := range plan.Sends {
			for _, pi := range plan.GapItems[k] {
				gi := perRank[r][pi]
				clock += items[gi].Actual
				ro.Compute += items[gi].Actual
			}
			var shipped []int
			var bytes int64
			for _, pi := range plan.ShipItems[k] {
				gi := perRank[r][pi]
				shipped = append(shipped, gi)
				bytes += items[gi].Bytes
			}
			clock += cfg.Comm.SendOverhead
			ro.Send += cfg.Comm.SendOverhead
			to := plan.Sends[k].To
			msgs[[2]int{r, to}] = message{
				items:   shipped,
				arrival: clock + cfg.Comm.Transit(bytes),
			}
			out.Transfers++
			out.BytesMoved += bytes
		}
		for _, pi := range plan.Tail {
			gi := perRank[r][pi]
			clock += items[gi].Actual
			ro.Compute += items[gi].Actual
		}
		ro.Finish = clock
	}

	// Receivers and neutral ranks: local work, then scheduled receives.
	for r := 0; r < n; r++ {
		if isSender[r] {
			continue
		}
		ro := &out.Ranks[r]
		clock := 0.0
		for _, i := range perRank[r] {
			clock += items[i].Actual
			ro.Compute += items[i].Actual
		}
		for _, src := range cl.RecvsAt(r) {
			m := msgs[[2]int{src, r}]
			if m.arrival > clock {
				ro.Wait += m.arrival - clock
				clock = m.arrival
			}
			for _, gi := range m.items {
				clock += items[gi].Actual
				ro.Compute += items[gi].Actual
			}
		}
		ro.Finish = clock
	}

	for r := 0; r < n; r++ {
		out.BalancedLoads[r] = out.Ranks[r].Compute
		if out.Ranks[r].Finish > out.Makespan {
			out.Makespan = out.Ranks[r].Finish
		}
	}
	return out
}

// senderPlanRef is sched.SenderPlan as it stood before sched.Steps: a
// sender's complete local execution plan: which items to compute before
// each send, which items to ship with each send, and which to compute at
// the end.
type senderPlanRef struct {
	// Sends mirrors the sender's transfers in schedule order.
	Sends []sched.Transfer
	// ShipItems[k] lists the local item indices shipped with send k.
	ShipItems [][]int
	// GapItems[k] lists the local item indices computed before send k.
	GapItems [][]int
	// Tail lists the items computed after the last send.
	Tail []int
}

// planSenderRef builds a sender's plan. itemTimes are the modeled times of the
// sender's local work items; sends are its transfers (amount = modeled work
// to ship); recvAvail[k] is the modeled time at which receiver k becomes
// free (its local total), used to order sends and size the compute gaps.
func planSenderRef(itemTimes []float64, sends []sched.Transfer, recvAvail []float64) senderPlanRef {
	plan := senderPlanRef{Sends: make([]sched.Transfer, len(sends))}
	copy(plan.Sends, sends)
	// Sort sends by the receiver's availability time ascending (the paper:
	// "senders sort their SendList by send time in ascending order").
	avail := make([]float64, len(sends))
	copy(avail, recvAvail)
	order := make([]int, len(sends))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return avail[order[a]] < avail[order[b]] })
	sorted := make([]sched.Transfer, len(sends))
	sortedAvail := make([]float64, len(sends))
	for i, o := range order {
		sorted[i] = plan.Sends[o]
		sortedAvail[i] = avail[o]
	}
	plan.Sends = sorted

	// Bins: one gap before each send (capacity = time between consecutive
	// send points) plus one ship bin per send (capacity = shipped work).
	bins := make([]*sched.Bin, 0, 2*len(sorted))
	gapBins := make([]*sched.Bin, len(sorted))
	shipBins := make([]*sched.Bin, len(sorted))
	prev := 0.0
	for k, tr := range sorted {
		gapBins[k] = &sched.Bin{Cap: sortedAvail[k] - prev}
		if gapBins[k].Cap < 0 {
			gapBins[k].Cap = 0
		}
		prev = sortedAvail[k]
		shipBins[k] = &sched.Bin{Cap: tr.Amount}
		bins = append(bins, gapBins[k], shipBins[k])
	}
	plan.Tail = sched.PackWork(itemTimes, bins)
	plan.GapItems = make([][]int, len(sorted))
	plan.ShipItems = make([][]int, len(sorted))
	for k := range sorted {
		plan.GapItems[k] = gapBins[k].Items
		plan.ShipItems[k] = shipBins[k].Items
	}
	return plan
}

// TestSimulateMatchesReference holds the step walk to the reference: the
// same Outcome, bit for bit, at rank counts from 1 to 4096, with load
// balancing on and off, mispredicted items, ranks that own nothing and
// items whose Rank is out of range.
func TestSimulateMatchesReference(t *testing.T) {
	comm := CommModel{Latency: 5e-6, BytesPerSec: 3e9, SendOverhead: 2e-5}
	for _, ranks := range []int{1, 2, 3, 7, 32, 256, 4096} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*7919 + int64(ranks)))
			// Items crowd the low ranks, so high ranks own nothing.
			items := make([]Item, 1+rng.Intn(12*ranks))
			for i := range items {
				p := rng.ExpFloat64()
				a := p * math.Exp(0.2*rng.NormFloat64())
				if rng.Intn(50) == 0 {
					a *= 12 // mispredicted
				}
				r := int(float64(ranks) * rng.Float64() * rng.Float64())
				switch rng.Intn(40) {
				case 0:
					r = -1 - rng.Intn(3)
				case 1:
					r = ranks + rng.Intn(3)
				}
				items[i] = Item{Rank: r, Predicted: p, Actual: a, Bytes: int64(1e5 * p)}
			}
			for _, lb := range []bool{false, true} {
				cfg := Config{Ranks: ranks, Comm: comm, LoadBalance: lb}
				got, want := Simulate(cfg, items), simulateRef(cfg, items)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("ranks=%d seed=%d lb=%v: makespan %v, reference %v (transfers %d, %d)",
						ranks, seed, lb, got.Makespan, want.Makespan, got.Transfers, want.Transfers)
				}
				if lb && ranks > 1 && seed == 1 && got.Transfers == 0 {
					t.Fatalf("ranks=%d: no transfers, the balanced walk is untested", ranks)
				}
			}
		}
	}
}
