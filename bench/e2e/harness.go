package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// sizes fixes every input size and offered rate of the benchmark. The
// full values were measured on the 2-vCPU reference host and are never
// calibrated at run time: both sides of a later comparison must see the
// same offered load. tinySizes exists only for the package's own test.
type sizes struct {
	buildN, buildGrid int // batch_build: particles, grid columns
	marchN, marchGrid int // batch_march

	serveN      int     // resident catalog for serve_*
	lattice     int     // columns across the catalog; fixes the cell size
	window      int     // serve_unique window edge (cells)
	uniqueRate  float64 // offered req/s, ≈4× one-worker capacity
	overlapRate float64 // offered req/s; two thirds are shed
	queueDepth  int
	// overlapQueue is the admission queue of serve_overlap. The batcher
	// drains same-family requests from the queue, so its depth bounds batch
	// size; 48 is what brings the average batch above 1.5.
	overlapQueue int
	// serve_overlap request pool: hot families, each a fixed origin and
	// jitter seed, requested with Nx in [nxMin, nxMax] and a fixed Ny.
	// families × nxMax × overlapNy ≈ 3 × the column cache's default 1<<20
	// cells, so eviction stays live. Many low families, not few tall ones:
	// a cold march is the unit the run averages over, and at 384 families
	// of Ny 64 a run held too few of them for its median to repeat.
	families, nxMin, nxMax, overlapNy int
	// segment is the length of one stretch of open-loop traffic, the
	// serve workloads' block.
	segment time.Duration

	fieldsN, fieldsCount, fieldsGrid int // dist_fields
	fieldLen                         float64
	distN, distGrid                  int // dist_grid
	ranks                            int

	minBlocks   int
	setups      int // set-ups per run; setup_s is their median
	oracleEvery int // every k-th good response is checked against a direct render
	probeScale  int // divisor on micro-probe iteration counts
}

var fullSizes = sizes{
	buildN: 100_000, buildGrid: 64,
	marchN: 12_000, marchGrid: 640,

	serveN: 20_000, lattice: 256, window: 32,
	uniqueRate: 1200, overlapRate: 1600, queueDepth: 16, overlapQueue: 48,
	families: 768, nxMin: 32, nxMax: 128, overlapNy: 32,
	segment: 1250 * time.Millisecond,

	fieldsN: 100_000, fieldsCount: 40, fieldsGrid: 64, fieldLen: 0.12,
	distN: 20_000, distGrid: 256,
	ranks: 4,

	minBlocks: 5, setups: 5, oracleEvery: 50, probeScale: 1,
}

var tinySizes = sizes{
	buildN: 1500, buildGrid: 16,
	marchN: 600, marchGrid: 48,

	serveN: 800, lattice: 64, window: 8,
	uniqueRate: 400, overlapRate: 400, queueDepth: 8, overlapQueue: 8,
	families: 6, nxMin: 8, nxMax: 16, overlapNy: 16,
	segment: 40 * time.Millisecond,

	fieldsN: 4000, fieldsCount: 6, fieldsGrid: 8, fieldLen: 0.2,
	distN: 800, distGrid: 24,
	ranks: 3,

	minBlocks: 2, setups: 1, oracleEvery: 10, probeScale: 200,
}

// injectCorruption is set only by the package test.
var injectCorruption bool

// env is one benchmark run: a workload, a seed, a time budget.
type env struct {
	seed    int64
	seconds float64
	trace   bool
	sz      sizes
	dir     string // scratch directory for generated inputs, inside the checkout
	tr      *tracer
	// sampler is the host-reference process (see hostref.go); host is what
	// it measured, once the timed part of the run is over.
	sampler *sampler
	host    *hostSpeed
	// setupWall and setupAt hold the set-ups as the wall clock read them,
	// until the sampler has stopped and they can be stated at reference speed.
	setupWall []float64
	setupAt   [][2]time.Time
	// rssPeaks holds one peak-resident-set sample per block (the kernel's
	// high-water mark is reset before each). peak_rss_mb is their median:
	// the high-water mark of a whole run is the maximum of a dozen
	// garbage-collector timings and moved 22% between runs, the median
	// block peak moves a few per cent. Empty where the kernel refuses the
	// reset; the run then reports the plain high-water mark.
	rssPeaks []float64
	// corrupt makes the oracle see a flipped bit in one output, so the
	// package test can prove a mismatch fails the run.
	corrupt bool
}

// outcome is what a workload hands back to main.
type outcome struct {
	// One entry per block, at reference speed (see hostRef): the latency of
	// its operation (ms; the median over the block's operations where it
	// has many) and its completed operations per second. rawOpMs is the
	// same latency as the wall clock read it.
	blockOpMs, blockRate, rawOpMs []float64
	opMs                          []float64 // pooled wall-clock latency samples (serve workloads)
	attempted                     int64
	failed                        int64
	problems                      []string // oracle misses and unexpected errors
	layer                         map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// block records one block: its wall-clock latency and rate, and the
// host's speed while it ran.
func (o *outcome) block(opMs, rate, speed float64) {
	o.rawOpMs = append(o.rawOpMs, opMs)
	o.blockOpMs = append(o.blockOpMs, opMs*speed)
	o.blockRate = append(o.blockRate, rate/speed)
}

func (o *outcome) set(name string, v float64) {
	if o.layer == nil {
		o.layer = map[string]float64{}
	}
	o.layer[name] = v
}

func (sz *sizes) queueFor(kind serveKind) int {
	if kind == serveUnique {
		return sz.queueDepth
	}
	return sz.overlapQueue
}

// timeSetups runs setup at least e.sz.setups times — and, for set-ups of
// a few milliseconds, until a second has gone into them (60 at
// most), so that setup_s, their median, is steady. The state of the last
// one is what the workload then measures.
func (e *env) timeSetups(setup func() error) error {
	var total float64
	for i := 0; i < e.sz.setups || (e.sz.setups > 1 && total < 1 && i < 60); i++ {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		t1 := time.Now()
		e.setupWall = append(e.setupWall, sec(t1.Sub(t0)))
		e.setupAt = append(e.setupAt, [2]time.Time{t0, t1})
		total += sec(t1.Sub(t0))
	}
	return nil
}

// hostSpeed stops the host-reference process (the timed part of the run is
// over) and returns what it measured.
func (e *env) hostSpeed() (*hostSpeed, error) {
	if e.host == nil {
		h, err := e.sampler.stop()
		if err != nil {
			return nil, err
		}
		e.host = h
	}
	return e.host, nil
}

// blockTimes is what runBlocks measured.
type blockTimes struct {
	wall     []float64 // seconds per block as the wall clock read them, in run order
	speed    []float64 // the host's speed during each block (see hostref.go)
	traced   []float64 // seconds at reference speed
	untraced []float64
}

// overhead is median traced block ÷ median untraced block − 1.
func (b *blockTimes) overhead() float64 {
	if len(b.traced) == 0 || len(b.untraced) == 0 {
		return 0
	}
	return median(b.traced)/median(b.untraced) - 1
}

// runBlocks repeats block until the time budget is spent (and at least
// minBlocks times), then stops the host-reference process and states every
// block at reference speed. With tracing on, blocks alternate traced and
// untraced, so per-layer numbers and the tracing overhead come from
// interleaved blocks of one process.
func (e *env) runBlocks(block func(i int, tr *tracer) (time.Duration, error)) (*blockTimes, error) {
	bt := &blockTimes{}
	start := time.Now()
	budget := time.Duration(e.seconds * float64(time.Second))
	var last time.Duration
	var at [][2]time.Time
	for i := 0; ; i++ {
		if i >= e.sz.minBlocks && time.Since(start)+last > budget {
			break
		}
		// Every block starts from the resident set of a fresh process: what
		// the last block left behind is collected and handed back, or the
		// peak of a block is that of its predecessor's garbage as often as
		// its own (batch_build's blocks read 125 or 168 MB, in pairs).
		debug.FreeOSMemory()
		var tr *tracer
		if e.trace && i%2 == 0 {
			tr = e.tr
		}
		rssReset := resetPeakRSS()
		t0 := time.Now()
		d, err := block(i, tr)
		if err != nil {
			return nil, err
		}
		// The block times itself and does its bookkeeping for the oracle
		// after that; its timed part ends d after it began.
		at = append(at, [2]time.Time{t0, t0.Add(d)})
		last = time.Since(t0)
		if rssReset {
			e.rssPeaks = append(e.rssPeaks, peakRSSMB())
		}
		bt.wall = append(bt.wall, sec(d))
	}
	host, err := e.hostSpeed()
	if err != nil {
		return nil, err
	}
	for i, d := range bt.wall {
		sp := host.over(at[i][0], at[i][1])
		bt.speed = append(bt.speed, sp)
		if verbose {
			fmt.Fprintf(os.Stderr, "block %d: %.1f ms, reference kernel %.4f ms, %.1f ms at reference speed\n", i, 1e3*d, 1e3*host.refTime(at[i][0], at[i][1]), 1e3*d*sp)
		}
		if e.trace && i%2 == 0 {
			bt.traced = append(bt.traced, d*sp)
		} else {
			bt.untraced = append(bt.untraced, d*sp)
		}
	}
	return bt, nil
}

// hostMetrics fills the harness's own per-layer numbers.
func (e *env) hostMetrics(o *outcome, bt *blockTimes) {
	o.set("host.ref_us", 1e6*median(e.host.dur))
	o.set("host.ref_spread", e.host.spreadFrac())
	o.set("harness.raw_op_ms", median(o.rawOpMs))
	if bt != nil {
		o.set("trace.overhead_frac", bt.overhead())
	}
}

// scratch returns a path under the run's scratch directory.
func (e *env) scratch(name string) string { return filepath.Join(e.dir, name) }

// newEnv prepares a run; the scratch directory lives under the current
// directory (the checkout root), never outside it.
func newEnv(workload string, seed int64, seconds float64, trace bool, sz sizes) (*env, error) {
	dir := filepath.Join(outDir, fmt.Sprintf("tmp-%s-%d", workload, os.Getpid()))
	err := os.MkdirAll(dir, 0o755)
	if err != nil {
		return nil, err
	}
	e := &env{seed: seed, seconds: seconds, trace: trace, sz: sz, dir: dir, corrupt: injectCorruption}
	if e.sampler, err = startSampler(); err != nil {
		return nil, err
	}
	if trace {
		e.tr = newTracer()
	}
	return e, nil
}

// cleanup removes the scratch directory and, on a path that did not get
// as far as reading the host reference, stops its process.
func (e *env) cleanup() {
	os.RemoveAll(e.dir)
	if e.host == nil {
		e.sampler.stop() //nolint:errcheck // the run already failed
	}
}
