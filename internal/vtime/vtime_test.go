package vtime

import (
	"math"
	"math/rand"
	"testing"
)

func TestNoBalanceMakespanIsMaxLoad(t *testing.T) {
	items := []Item{
		{Rank: 0, Predicted: 10, Actual: 10},
		{Rank: 0, Predicted: 10, Actual: 10},
		{Rank: 1, Predicted: 2, Actual: 2},
	}
	out := Simulate(Config{Ranks: 2}, items)
	if out.Makespan != 20 {
		t.Fatalf("makespan = %v", out.Makespan)
	}
	if out.Transfers != 0 {
		t.Fatal("transfers without load balancing")
	}
}

func TestBalancingReducesMakespan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var items []Item
	// Rank 0 heavily loaded with many small items; ranks 1-3 light.
	for i := 0; i < 40; i++ {
		items = append(items, Item{Rank: 0, Predicted: 1, Actual: 1, Bytes: 1000})
	}
	for r := 1; r < 4; r++ {
		for i := 0; i < 2; i++ {
			items = append(items, Item{Rank: r, Predicted: 1, Actual: 1, Bytes: 1000})
		}
	}
	_ = rng
	base := Simulate(Config{Ranks: 4}, items)
	lb := Simulate(Config{Ranks: 4, LoadBalance: true, Comm: CommModel{Latency: 0.01, BytesPerSec: 1e9}}, items)
	if lb.Makespan >= base.Makespan*0.5 {
		t.Fatalf("balancing gained too little: %v -> %v", base.Makespan, lb.Makespan)
	}
	if lb.Transfers == 0 || lb.BytesMoved == 0 {
		t.Fatal("no transfers recorded")
	}
	// Work conservation: total computed time equals total actual time.
	var want, got float64
	for _, it := range items {
		want += it.Actual
	}
	for _, r := range lb.Ranks {
		got += r.Compute
	}
	if math.Abs(want-got) > 1e-9 {
		t.Fatalf("compute not conserved: %v vs %v", got, want)
	}
}

func TestAllItemsExecutedExactlyOnce(t *testing.T) {
	// Conservation check with random loads at a few rank counts.
	for _, ranks := range []int{2, 7, 32, 256} {
		rng := rand.New(rand.NewSource(int64(ranks)))
		var items []Item
		var total float64
		for i := 0; i < ranks*10; i++ {
			a := rng.ExpFloat64()
			items = append(items, Item{
				Rank:      rng.Intn(ranks),
				Predicted: a * (1 + 0.1*rng.NormFloat64()),
				Actual:    a,
				Bytes:     int64(1000 * a),
			})
			total += a
		}
		out := Simulate(Config{Ranks: ranks, LoadBalance: true,
			Comm: CommModel{Latency: 1e-4, BytesPerSec: 1e9}}, items)
		var got float64
		for _, r := range out.Ranks {
			got += r.Compute
		}
		if math.Abs(got-total) > 1e-6*total {
			t.Fatalf("ranks=%d: executed %v of %v", ranks, got, total)
		}
		if out.Makespan <= 0 {
			t.Fatalf("ranks=%d: zero makespan", ranks)
		}
	}
}

func TestImbalanceStats(t *testing.T) {
	var items []Item
	for i := 0; i < 30; i++ {
		items = append(items, Item{Rank: 0, Predicted: 1, Actual: 1})
	}
	items = append(items, Item{Rank: 1, Predicted: 1, Actual: 1})
	out := Simulate(Config{Ranks: 4, LoadBalance: true, Comm: CommModel{Latency: 1e-4, BytesPerSec: 1e9}}, items)
	unb, bal := out.ImbalanceStats()
	if bal >= unb {
		t.Fatalf("balancing did not reduce imbalance: %v -> %v", unb, bal)
	}
}

func TestMispredictionDelaysSharing(t *testing.T) {
	// The paper's Fig 13 pathology: a degenerate item whose actual time
	// vastly exceeds its prediction sits before the send point, delaying
	// the shipped work and dragging the makespan up.
	mk := func(degenerate bool) float64 {
		var items []Item
		for i := 0; i < 20; i++ {
			a := 1.0
			p := 1.0
			if degenerate && i == 0 {
				a = 30 // mispredicted: model said 1, reality 30
			}
			items = append(items, Item{Rank: 0, Predicted: p, Actual: a, Bytes: 100})
		}
		items = append(items, Item{Rank: 1, Predicted: 0.5, Actual: 0.5})
		out := Simulate(Config{Ranks: 2, LoadBalance: true,
			Comm: CommModel{Latency: 1e-3, BytesPerSec: 1e9}}, items)
		return out.Makespan
	}
	good := mk(false)
	bad := mk(true)
	if bad <= good+20 {
		t.Fatalf("misprediction should hurt: %v vs %v", good, bad)
	}
}

func TestCommModelTransit(t *testing.T) {
	m := CommModel{Latency: 0.1, BytesPerSec: 100}
	if got := m.Transit(50); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("transit = %v", got)
	}
	if got := (CommModel{Latency: 0.2}).Transit(1000); got != 0.2 {
		t.Fatalf("zero-bandwidth transit = %v", got)
	}
}

func TestReceiverWaitAccounting(t *testing.T) {
	// Receiver with no local work must wait for the sender's gap compute.
	items := []Item{
		{Rank: 0, Predicted: 4, Actual: 4, Bytes: 0},
		{Rank: 0, Predicted: 4, Actual: 4, Bytes: 0},
	}
	out := Simulate(Config{Ranks: 2, LoadBalance: true, Comm: CommModel{Latency: 0.5}}, items)
	r1 := out.Ranks[1]
	if r1.Wait <= 0 {
		t.Fatalf("receiver should have waited: %+v", r1)
	}
	if r1.Compute <= 0 {
		t.Fatalf("receiver should have computed shipped work: %+v", r1)
	}
}

func BenchmarkSimulate16k(b *testing.B) {
	const ranks = 16384
	rng := rand.New(rand.NewSource(9))
	items := make([]Item, ranks*14)
	for i := range items {
		a := rng.ExpFloat64()
		items[i] = Item{
			Rank:      rng.Intn(ranks),
			Predicted: a,
			Actual:    a * (1 + 0.05*rng.NormFloat64()),
			Bytes:     int64(a * 1e5),
		}
	}
	cfg := Config{Ranks: ranks, LoadBalance: true, Comm: CommModel{Latency: 5e-6, BytesPerSec: 5e9}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Simulate(cfg, items)
	}
}
