package vtime

import (
	"testing"
	"time"

	"godtfe/internal/fault"
)

func fsBaseConfig() FieldServeConfig {
	return FieldServeConfig{
		Workers:      4,
		QueueDepth:   8,
		WarmFamilies: 128,
		SpecPool:     512,
		Requests:     200_000,
		RenderCost:   0.01,
		HitCost:      0.0001,
		BuildCost:    0.5,
		ColumnCost:   0.0002,
		Seed:         42,
	}
}

// The simulator is a pure function of its config.
func TestSimFieldServeDeterministic(t *testing.T) {
	cfg := fsBaseConfig()
	cfg.Fault = fault.New(fault.Plan{
		Seed:            9,
		SlowClientProb:  0.1,
		SlowClientDelay: 20 * time.Millisecond,
		CancelProb:      0.05,
		CancelAfter:     5 * time.Millisecond,
		PoisonProb:      0.01,
	})
	a := SimulateFieldServe(cfg)
	b := SimulateFieldServe(cfg)
	if a != b {
		t.Fatalf("same config diverged:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 43
	if c := SimulateFieldServe(cfg); c == a {
		t.Fatal("different seed produced identical outcome")
	}
}

// Every request must be accounted for exactly once across the terminal
// outcomes, under load and faults.
func TestSimFieldServeConservation(t *testing.T) {
	cfg := fsBaseConfig()
	cfg.ArrivalRate = 2 * float64(cfg.Workers) / cfg.RenderCost
	cfg.Fault = fault.New(fault.Plan{
		Seed:        3,
		CancelProb:  0.1,
		CancelAfter: 3 * time.Millisecond,
		PoisonProb:  0.02,
	})
	out := SimulateFieldServe(cfg)
	if got := out.Served + out.Shed + out.Expired; got != cfg.Requests {
		t.Fatalf("served %d + shed %d + expired %d = %d, want %d",
			out.Served, out.Shed, out.Expired, got, cfg.Requests)
	}
	if out.Poisoned == 0 {
		t.Fatal("poison injection never detected")
	}
	if out.Builds != 1 {
		t.Fatalf("builds = %d, want 1", out.Builds)
	}
}

// Under well-provisioned load (offered load ≪ capacity, popular specs
// cached) nothing sheds and latency stays near the hit cost.
func TestSimFieldServeUnderProvisioned(t *testing.T) {
	cfg := fsBaseConfig()
	// Effective capacity is Workers/RenderCost misses per second, and the
	// skewed popularity means most requests hit the cache.
	cfg.ArrivalRate = 0.5 * float64(cfg.Workers) / cfg.RenderCost
	out := SimulateFieldServe(cfg)
	// A brief cold-start transient (empty cache + mesh build) may shed;
	// steady state must not.
	if out.Shed > cfg.Requests/1000 {
		t.Fatalf("underloaded service shed %d of %d requests", out.Shed, cfg.Requests)
	}
	// Quadratic popularity sends ~50% of traffic to the top quarter of
	// the pool; an LRU a quarter the pool size earns a material fraction
	// of that under churn.
	if out.HitRate < 0.3 {
		t.Fatalf("hit rate %.2f too low for skewed popularity", out.HitRate)
	}
	// A cold request costs its march plus the assembly of its response; the
	// second HitCost is slack for float rounding.
	if out.P50 > cfg.RenderCost+2*cfg.HitCost {
		t.Fatalf("p50 %.4fs exceeds a full render at low load", out.P50)
	}
}

// TestSimFieldServeOverloadSmoke drives the million-request open-loop
// generator at 2× capacity: the bounded queue must hold p99 latency to a
// small multiple of the render cost (requests wait in a short queue or
// are rejected, never in an unbounded backlog), the shed rate must be
// material, and degraded serves must appear when the ladder is warm.
func TestSimFieldServeOverloadSmoke(t *testing.T) {
	cfg := fsBaseConfig()
	cfg.Requests = 1_000_000
	cfg.SpecPool = 4096
	cfg.WarmFamilies = 256
	cfg.ArrivalRate = 2 * float64(cfg.Workers) / cfg.RenderCost
	cfg.DegradeHitFrac = 0.25
	cfg.Fault = fault.New(fault.Plan{
		Seed:            5,
		SlowClientProb:  0.05,
		SlowClientDelay: 10 * time.Millisecond,
		CancelProb:      0.02,
		CancelAfter:     5 * time.Millisecond,
		PoisonProb:      0.001,
	})
	out := SimulateFieldServe(cfg)
	t.Logf("1M @ 2x: served=%d shed=%d (rate %.3f) degraded=%d expired=%d batches=%d "+
		"hitRate=%.3f p50=%.4fs p99=%.4fs max=%.4fs thru=%.1f/s poisoned=%d",
		out.Served, out.Shed, out.ShedRate, out.Degraded, out.Expired, out.Batches,
		out.HitRate, out.P50, out.P99, out.Max, out.Throughput, out.Poisoned)

	if out.Served+out.Shed+out.Expired != cfg.Requests {
		t.Fatal("request conservation violated")
	}
	if out.ShedRate <= 0 {
		t.Fatal("2× overload never shed")
	}
	if out.Degraded == 0 {
		t.Fatal("warm degrade ladder never used")
	}
	// Bounded tail: a served request waits behind at most the queue plus
	// the in-service renders; generous constant factor, but finite — an
	// unbounded queue would push p99 into seconds here.
	bound := cfg.RenderCost * float64(cfg.QueueDepth+cfg.Workers+2)
	if out.P99 > bound {
		t.Fatalf("p99 %.4fs exceeds bounded-queue limit %.4fs", out.P99, bound)
	}
	if out.Throughput <= 0 {
		t.Fatal("no throughput")
	}
}

// TestSimFieldServeOverlapStormSmoke is the overlap workload on the one
// model: the million-request generator at 8× the cold-march capacity, 80%
// of it aimed at 64 hot families churning through 32 window extents each.
// Batching and the column cache must absorb it — served throughput at
// least twice what the workers could march cold — with every request
// accounted for.
func TestSimFieldServeOverlapStormSmoke(t *testing.T) {
	cfg := fsBaseConfig()
	cfg.Requests = 1_000_000
	cfg.SpecPool = 4096
	cfg.WarmFamilies = 256
	capacity := float64(cfg.Workers) / cfg.RenderCost
	cfg.ArrivalRate = 8 * capacity
	cfg.QueueDepth = 32 // deep enough that hot arrivals survive admission long enough to coalesce
	cfg.MaxBatch = 32
	cfg.BatchWindow = 0.0005 // half a millisecond buys follower pickup
	cfg.OverlapFrac = 0.8
	cfg.FamilyPool = 64
	cfg.ExtentLevels = 32

	out := SimulateFieldServe(cfg)
	t.Logf("overlap 1M @ 8x: served=%d thru=%.1f/s shed=%.3f p99=%.4fs hitRate=%.3f batches=%d coalesced=%d",
		out.Served, out.Throughput, out.ShedRate, out.P99, out.HitRate, out.Batches, out.Coalesced)
	if out.Served+out.Shed+out.Expired != cfg.Requests {
		t.Fatal("request conservation violated")
	}
	if out.Batches == 0 || out.Coalesced == 0 {
		t.Fatal("overlap storm never batched")
	}
	if out.Throughput < 2*capacity {
		t.Fatalf("served %.1f/s, under twice the %.0f/s cold-march capacity", out.Throughput, capacity)
	}
}
