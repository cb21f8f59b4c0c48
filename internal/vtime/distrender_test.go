package vtime

import "testing"

// distCfg is a star (fanout = ranks): every worker a leaf under the root.
func distCfg(ranks int, tiles int) DistRenderConfig {
	costs := make([]float64, tiles)
	for i := range costs {
		costs[i] = 1.0 + 0.1*float64(i%5)
	}
	return DistRenderConfig{
		Ranks: ranks, Fanout: ranks,
		Comm:      CommModel{Latency: 1e-4, BytesPerSec: 1e9, SendOverhead: 1e-4},
		TileCosts: costs, AssignBytes: 64, ResultBytes: 1 << 20,
		SetupCost: 0.5, StitchPerTile: 1e-4,
	}
}

func TestSimulateDistRenderSerialBaseline(t *testing.T) {
	cfg := distCfg(1, 8)
	out := SimulateDistRender(cfg)
	want := cfg.SetupCost
	for _, c := range cfg.TileCosts {
		want += c + cfg.StitchPerTile
	}
	if out.Makespan != want {
		t.Fatalf("serial makespan %v, want %v", out.Makespan, want)
	}
	if out.Tiles != 8 || out.Ranks != 1 {
		t.Fatalf("outcome bookkeeping: %+v", out)
	}
}

func TestSimulateDistRenderScalesThenSaturates(t *testing.T) {
	const tiles = 256
	prev := SimulateDistRender(distCfg(1, tiles)).Makespan
	// Adding ranks must never slow the schedule down, and must help a lot
	// at small counts.
	for _, ranks := range []int{2, 4, 16, 64} {
		m := SimulateDistRender(distCfg(ranks, tiles)).Makespan
		if m > prev*1.0001 {
			t.Fatalf("ranks=%d makespan %v worse than previous %v", ranks, m, prev)
		}
		prev = m
	}
	if speedup := SimulateDistRender(distCfg(1, tiles)).Makespan / prev; speedup < 20 {
		t.Fatalf("64 ranks speedup %v, expected > 20 on a 256-tile workload", speedup)
	}
	// In a star the coordinator ingests one frame per tile, and that serial
	// protocol cost lower-bounds the makespan at any rank count: scaling
	// saturates instead of diverging to zero.
	cfg := distCfg(100000, tiles)
	floor := float64(tiles) * (cfg.Comm.SendOverhead + cfg.StitchPerTile)
	if m := SimulateDistRender(cfg).Makespan; m < floor {
		t.Fatalf("makespan %v beat the coordinator serialization floor %v", m, floor)
	}
}
