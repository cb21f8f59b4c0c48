package sched

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestCommListSimplePair(t *testing.T) {
	times := []float64{10, 2} // mean 6: rank 0 sends 4 to rank 1
	cl := CreateCommunicationList(times)
	if len(cl.Transfers) != 1 {
		t.Fatalf("transfers = %+v", cl.Transfers)
	}
	tr := cl.Transfers[0]
	if tr.From != 0 || tr.To != 1 || math.Abs(tr.Amount-4) > 1e-12 {
		t.Fatalf("transfer = %+v", tr)
	}
	bal := cl.BalancedTimes(times)
	if math.Abs(bal[0]-6) > 1e-12 || math.Abs(bal[1]-6) > 1e-12 {
		t.Fatalf("balanced = %v", bal)
	}
}

func TestCommListFigureExample(t *testing.T) {
	// Qualitative shape of the paper's Fig 4: several over-mean senders,
	// several under-mean receivers; after applying transfers no rank is
	// above the mean and total time is conserved.
	times := []float64{13, 9, 35, 16, 6, 16, 13, 35, 31, 18, 11, 37, 25, 23, 30}
	cl := CreateCommunicationList(times)
	bal := cl.BalancedTimes(times)
	var tot0, tot1 float64
	for i := range times {
		tot0 += times[i]
		tot1 += bal[i]
	}
	if math.Abs(tot0-tot1) > 1e-9 {
		t.Fatalf("work not conserved: %v vs %v", tot0, tot1)
	}
	for i, b := range bal {
		if b > cl.Mean+1e-9 {
			t.Fatalf("rank %d still above mean: %v > %v", i, b, cl.Mean)
		}
	}
	// Senders were all above the mean, receivers all below.
	for _, tr := range cl.Transfers {
		if times[tr.From] <= cl.Mean {
			t.Fatalf("sender %d was not overloaded", tr.From)
		}
		if times[tr.To] >= cl.Mean {
			t.Fatalf("receiver %d was not underloaded", tr.To)
		}
		if tr.Amount <= 0 {
			t.Fatalf("non-positive transfer %+v", tr)
		}
	}
}

func TestCommListGreedyPairing(t *testing.T) {
	// "Senders with the most work share with receivers with the largest
	// ability to receive": the most loaded rank pairs first with the least
	// loaded rank.
	times := []float64{100, 50, 10, 0}
	cl := CreateCommunicationList(times) // mean 40
	if len(cl.Transfers) == 0 {
		t.Fatal("no transfers")
	}
	first := cl.Transfers[0]
	if first.From != 0 || first.To != 3 {
		t.Fatalf("first transfer %+v, want 0 -> 3", first)
	}
	if math.Abs(first.Amount-40) > 1e-12 { // fills rank 3 to the mean
		t.Fatalf("first amount = %v", first.Amount)
	}
}

func TestCommListPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(40)
		times := make([]float64, n)
		for i := range times {
			times[i] = rng.Float64() * 100
		}
		cl := CreateCommunicationList(times)
		bal := cl.BalancedTimes(times)
		var t0, t1 float64
		for i := range times {
			t0 += times[i]
			t1 += bal[i]
		}
		if math.Abs(t0-t1) > 1e-6 {
			t.Fatalf("trial %d: conservation broken", trial)
		}
		for i, b := range bal {
			if b > cl.Mean+1e-6 {
				t.Fatalf("trial %d: rank %d above mean after balancing (%v > %v)", trial, i, b, cl.Mean)
			}
			if b < -1e-9 {
				t.Fatalf("trial %d: negative load", trial)
			}
		}
		// Per-rank views are consistent with the global list.
		for r := 0; r < n; r++ {
			for _, tr := range cl.SendsFrom(r) {
				if tr.From != r {
					t.Fatalf("SendsFrom(%d) returned %+v", r, tr)
				}
			}
			for _, src := range cl.RecvsAt(r) {
				if src == r {
					t.Fatalf("self-receive at %d", r)
				}
			}
		}
	}
}

func TestCommListDeterminism(t *testing.T) {
	times := []float64{5, 5, 5, 20, 0, 0}
	a := CreateCommunicationList(times)
	b := CreateCommunicationList(times)
	if len(a.Transfers) != len(b.Transfers) {
		t.Fatal("non-deterministic")
	}
	for i := range a.Transfers {
		if a.Transfers[i] != b.Transfers[i] {
			t.Fatalf("transfer %d differs", i)
		}
	}
}

func TestCommListEdgeCases(t *testing.T) {
	if cl := CreateCommunicationList(nil); len(cl.Transfers) != 0 {
		t.Fatal("empty input should yield empty list")
	}
	if cl := CreateCommunicationList([]float64{7}); len(cl.Transfers) != 0 {
		t.Fatal("single rank cannot share")
	}
	// Perfectly balanced: nothing to do.
	if cl := CreateCommunicationList([]float64{3, 3, 3}); len(cl.Transfers) != 0 {
		t.Fatalf("balanced input produced transfers: %+v", cl.Transfers)
	}
}

func TestPackWorkInvariants(t *testing.T) {
	f := func(rawItems []float64, rawCaps []float64) bool {
		if len(rawItems) > 64 {
			rawItems = rawItems[:64]
		}
		if len(rawCaps) > 16 {
			rawCaps = rawCaps[:16]
		}
		items := make([]float64, len(rawItems))
		for i, v := range rawItems {
			items[i] = math.Abs(math.Mod(v, 100))
		}
		bins := make([]*Bin, len(rawCaps))
		for i, v := range rawCaps {
			bins[i] = &Bin{Cap: math.Abs(math.Mod(v, 200))}
		}
		leftover := PackWork(items, bins)
		// Every item exactly once.
		seen := make(map[int]bool)
		for _, b := range bins {
			if b.Load > b.Cap+1e-9 {
				return false
			}
			var load float64
			for _, it := range b.Items {
				if seen[it] {
					return false
				}
				seen[it] = true
				load += items[it]
			}
			if math.Abs(load-b.Load) > 1e-9 {
				return false
			}
		}
		for _, it := range leftover {
			if seen[it] {
				return false
			}
			seen[it] = true
		}
		return len(seen) == len(items)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPackWorkFirstFitDecreasing(t *testing.T) {
	items := []float64{8, 5, 3, 2, 1}
	bins := []*Bin{{Cap: 10}, {Cap: 9}}
	leftover := PackWork(items, bins)
	// Sorted bins ascending: cap 9 first. Item 8 -> bin(9); 5 -> bin(10);
	// 3 -> bin(10) (load 8); 2 -> bin(10) (load 10); 1 -> bin(9) (load 9).
	if len(leftover) != 0 {
		t.Fatalf("leftover = %v", leftover)
	}
	var total float64
	for _, b := range bins {
		total += b.Load
	}
	if total != 19 {
		t.Fatalf("packed total = %v", total)
	}
}

func TestPlanSender(t *testing.T) {
	// Sender has 6 local items; two receivers become available at t=4 and
	// t=10; ship 5 units to each.
	items := []float64{3, 1, 4, 2, 5, 2} // total 17
	cl := CommList{Transfers: []Transfer{{From: 0, To: 2, Amount: 5}, {From: 0, To: 1, Amount: 5}}}
	totals := []float64{17, 4, 10} // receiver 2 free at 10, receiver 1 at 4
	steps := cl.Steps(totals, 0, items)
	// Sends must be reordered by availability: receiver 1 (t=4) first.
	var ships []Step
	seen := make(map[int]int)
	for _, st := range steps {
		switch st.Kind {
		case Compute:
			seen[st.Item]++
		case Ship:
			ships = append(ships, st)
			for _, it := range st.Items {
				seen[it]++
			}
		case Recv:
			t.Fatalf("sender receives: %+v", st)
		}
	}
	if len(ships) != 2 || ships[0].Peer != 1 || ships[1].Peer != 2 {
		t.Fatalf("send order: %+v", ships)
	}
	// Every item appears exactly once across gaps, ships and tail.
	if len(seen) != len(items) {
		t.Fatalf("items covered: %d of %d", len(seen), len(items))
	}
	for it, n := range seen {
		if n != 1 {
			t.Fatalf("item %d assigned %d times", it, n)
		}
	}
	// Ship bins respect their capacity.
	for k, sh := range ships {
		var load float64
		for _, it := range sh.Items {
			load += items[it]
		}
		if load > 5+1e-9 {
			t.Fatalf("ship %d overloaded: %v > 5", k, load)
		}
	}
}

func TestPlanSenderNoSends(t *testing.T) {
	steps := CommList{}.Steps(nil, 0, []float64{1, 2, 3})
	if len(steps) != 3 {
		t.Fatalf("steps = %+v", steps)
	}
	for i, st := range steps {
		if st.Kind != Compute || st.Item != i {
			t.Fatalf("step %d = %+v, want Compute(%d)", i, st, i)
		}
	}
}

// TestStepsCoverEveryItemOnce pins the one Phase-4 list on random loads:
// each local item appears in exactly one Compute or Ship, ships follow the
// receivers' availability, Recv peers are RecvsAt in order, and no rank
// both ships and receives.
func TestStepsCoverEveryItemOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(48)
		itemTimes := make([][]float64, n)
		totals := make([]float64, n)
		for r := range itemTimes {
			k := rng.Intn(12) // some ranks own nothing
			if rng.Intn(4) == 0 {
				k += 30
			}
			for i := 0; i < k; i++ {
				v := rng.ExpFloat64()
				itemTimes[r] = append(itemTimes[r], v)
				totals[r] += v
			}
		}
		cl := CreateCommunicationList(totals)
		if trial%5 == 0 {
			cl = CommList{} // no load balancing
		}
		for r := 0; r < n; r++ {
			steps := cl.Steps(totals, r, itemTimes[r])
			seen := make([]int, len(itemTimes[r]))
			var shipTo, recvFrom []int
			for _, st := range steps {
				switch st.Kind {
				case Compute:
					seen[st.Item]++
				case Ship:
					shipTo = append(shipTo, st.Peer)
					for _, i := range st.Items {
						seen[i]++
					}
				case Recv:
					recvFrom = append(recvFrom, st.Peer)
				}
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("trial %d rank %d: item %d in %d steps", trial, r, i, c)
				}
			}
			if len(shipTo) > 0 && len(recvFrom) > 0 {
				t.Fatalf("trial %d rank %d both ships %v and receives %v", trial, r, shipTo, recvFrom)
			}
			sends := cl.SendsFrom(r)
			if len(shipTo) != len(sends) {
				t.Fatalf("trial %d rank %d: %d ships for %d transfers", trial, r, len(shipTo), len(sends))
			}
			for k := 1; k < len(shipTo); k++ {
				if totals[shipTo[k]] < totals[shipTo[k-1]] {
					t.Fatalf("trial %d rank %d: ships %v out of availability order", trial, r, shipTo)
				}
			}
			if want := cl.RecvsAt(r); !slices.Equal(recvFrom, want) {
				t.Fatalf("trial %d rank %d: receives from %v, RecvsAt %v", trial, r, recvFrom, want)
			}
			if len(cl.Transfers) == 0 {
				for i, st := range steps {
					if st.Kind != Compute || st.Item != i {
						t.Fatalf("trial %d rank %d: without transfers step %d is %+v", trial, r, i, st)
					}
				}
			}
		}
	}
}

func TestTimelineText(t *testing.T) {
	times := []float64{10, 2, 6}
	cl := CreateCommunicationList(times)
	out := cl.TimelineText(times, 30)
	if !strings.Contains(out, "rank   0") || !strings.Contains(out, "sends") {
		t.Fatalf("timeline missing sender info:\n%s", out)
	}
	if !strings.Contains(out, "receives") {
		t.Fatalf("timeline missing receiver info:\n%s", out)
	}
	if !strings.Contains(out, "mean") {
		t.Fatalf("timeline missing mean marker:\n%s", out)
	}
	// Degenerate inputs don't panic.
	if got := (CommList{}).TimelineText(nil, 0); got == "" {
		t.Fatal("empty timeline")
	}
}
