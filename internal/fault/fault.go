// Package fault is a deterministic, seeded fault injector for the
// distributed framework. A Plan describes the faults to inject — rank
// crashes at a chosen instrumentation point, straggler slowdown
// multipliers, message drops and delivery delays — and an Injector turns
// the plan into repeatable decisions: the same plan and seed always
// produce the same fault schedule, so chaos tests are reproducible and
// runnable under the race detector.
//
// Message-level faults interpose on the internal/mpi send path (the
// Injector implements mpi.Injector); compute-level faults (crashes,
// stragglers) are consulted by internal/pipeline at its instrumentation
// points.
package fault

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"godtfe/internal/mpi"
)

// ErrInjectedCrash marks an error produced by an injected rank crash.
var ErrInjectedCrash = errors.New("fault: injected crash")

// Instrumentation points where crashes can be scheduled. The pipeline
// consults the injector with (point, progress) pairs; for PointPhase4,
// progress is the number of Phase 4 work items completed so far.
const (
	PointPhase1 = "phase1"
	PointPhase2 = "phase2"
	PointPhase3 = "phase3"
	PointPhase4 = "phase4"
	// PointTile is consulted by the distributed renderer before each tile
	// march; progress is the number of tiles the rank has completed.
	PointTile = "tile"
	// PointRelay is consulted by the distributed renderer before a worker
	// sends a frame to rank 0; progress is the number of frames the rank
	// has sent. Crashing here loses tiles that were marched but never sent.
	PointRelay = "relay"
)

// Crash kills one rank when it reaches a point with progress >= After.
type Crash struct {
	Rank  int
	Point string
	After int
}

// Straggler slows one rank down by Factor (>1) at every compute step.
type Straggler struct {
	Rank   int
	Factor float64
}

// Plan is a declarative fault schedule.
type Plan struct {
	// Seed drives every probabilistic decision; the same seed replays
	// the same faults.
	Seed int64
	// Crashes and Stragglers target specific ranks.
	Crashes    []Crash
	Stragglers []Straggler
	// DropProb is the per-message probability that its first DropCount
	// delivery attempts are dropped (exercising the sender's retry and
	// backoff path). DropCount defaults to 2 so that default retry
	// budgets eventually succeed.
	DropProb  float64
	DropCount int
	// DelayProb delays affected messages by ~Delay (jittered
	// deterministically in [0.5, 1.5]×Delay).
	DelayProb float64
	Delay     time.Duration
	// MaxStraggleSleep caps a single injected straggler sleep.
	// Default 250ms.
	MaxStraggleSleep time.Duration

	// Request-level faults, consulted by the resident field service and
	// its load generators. Requests are identified by a monotonically
	// assigned id, so the same plan and seed replay the same per-request
	// faults regardless of scheduling order.
	//
	// SlowClientProb injects a slow client: the affected request's
	// submission is delayed by ~SlowClientDelay (jittered
	// deterministically in [0.5, 1.5]×), holding service resources from
	// the caller's side. CancelProb cancels the affected request's
	// context ~CancelAfter after admission (same jitter), exercising the
	// mid-march release path. PoisonProb corrupts the cache entry that
	// the affected request fills, exercising checksum-based poison
	// detection on later hits.
	SlowClientProb  float64
	SlowClientDelay time.Duration
	CancelProb      float64
	CancelAfter     time.Duration
	PoisonProb      float64

	// OverlapProb shapes the request *workload* rather than injecting a
	// failure: with probability OverlapProb a request is drawn from one of
	// OverlapFamilies popular coalescing families (same origin/spacing,
	// differing window extents), and otherwise from a unique spec family
	// of its own. Load generators use OverlapVerdict to build
	// overlap-heavy request streams that exercise shared-march batching
	// deterministically.
	OverlapProb     float64
	OverlapFamilies int
}

// RequestFault is the injected behavior for one field-service request.
type RequestFault struct {
	// SlowClient delays the request's submission by Delay.
	SlowClient bool
	Delay      time.Duration
	// Cancel cancels the request's context CancelAfter after admission.
	Cancel      bool
	CancelAfter time.Duration
}

// Injector makes deterministic fault decisions from a Plan. It is safe
// for concurrent use by every rank.
type Injector struct {
	plan Plan

	mu  sync.Mutex
	seq map[[3]int]uint64 // per-(src,dst,tag) message counter
}

// New builds an injector for the plan, applying defaults.
func New(plan Plan) *Injector {
	if plan.DropCount <= 0 {
		plan.DropCount = 2
	}
	if plan.MaxStraggleSleep <= 0 {
		plan.MaxStraggleSleep = 250 * time.Millisecond
	}
	return &Injector{plan: plan, seq: make(map[[3]int]uint64)}
}

// splitmix64 is a tiny, high-quality deterministic mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// frac maps a hash to [0, 1).
func frac(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

func (in *Injector) hash(salt uint64, src, dst, tag int, id uint64) uint64 {
	h := splitmix64(uint64(in.plan.Seed) ^ salt)
	h = splitmix64(h ^ uint64(src)<<40 ^ uint64(dst)<<20 ^ uint64(uint32(tag)))
	return splitmix64(h ^ id)
}

// SendVerdict implements mpi.Injector: it decides, deterministically per
// message, whether a delivery attempt is dropped or delayed.
func (in *Injector) SendVerdict(src, dst, tag, attempt, bytes int) mpi.SendVerdict {
	if in.plan.DropProb <= 0 && in.plan.DelayProb <= 0 {
		return mpi.SendVerdict{}
	}
	key := [3]int{src, dst, tag}
	in.mu.Lock()
	id := in.seq[key]
	if attempt == 0 {
		in.seq[key] = id + 1
	} else if id > 0 {
		id-- // retries refer to the message issued on attempt 0
	}
	in.mu.Unlock()

	var v mpi.SendVerdict
	if in.plan.DropProb > 0 && attempt < in.plan.DropCount &&
		frac(in.hash(0xd509, src, dst, tag, id)) < in.plan.DropProb {
		v.Drop = true
		return v
	}
	if in.plan.DelayProb > 0 && attempt == 0 {
		h := in.hash(0xde1a, src, dst, tag, id)
		if frac(h) < in.plan.DelayProb {
			jitter := 0.5 + frac(splitmix64(h))
			v.Delay = time.Duration(float64(in.plan.Delay) * jitter)
		}
	}
	return v
}

// ShouldCrash reports whether rank must crash at this instrumentation
// point with the given progress.
func (in *Injector) ShouldCrash(rank int, point string, progress int) bool {
	for _, c := range in.plan.Crashes {
		if c.Rank == rank && c.Point == point && progress >= c.After {
			return true
		}
	}
	return false
}

// Crashed builds the error a rank dies with when ShouldCrash fires.
func Crashed(rank int, point string, progress int) error {
	return fmt.Errorf("%w: rank %d at %s after %d items", ErrInjectedCrash, rank, point, progress)
}

// RequestVerdict decides, deterministically per request id, which
// request-level faults fire. Safe for concurrent use.
func (in *Injector) RequestVerdict(id uint64) RequestFault {
	var v RequestFault
	if in.plan.SlowClientProb > 0 {
		h := in.hash(0x51c0, 0, 0, 0, id)
		if frac(h) < in.plan.SlowClientProb {
			v.SlowClient = true
			jitter := 0.5 + frac(splitmix64(h))
			v.Delay = time.Duration(float64(in.plan.SlowClientDelay) * jitter)
		}
	}
	if in.plan.CancelProb > 0 {
		h := in.hash(0xca9c, 0, 0, 0, id)
		if frac(h) < in.plan.CancelProb {
			v.Cancel = true
			jitter := 0.5 + frac(splitmix64(h))
			v.CancelAfter = time.Duration(float64(in.plan.CancelAfter) * jitter)
		}
	}
	return v
}

// ShouldPoisonCache reports whether the cache fill performed by request
// id must be corrupted (deterministic per id).
func (in *Injector) ShouldPoisonCache(id uint64) bool {
	if in.plan.PoisonProb <= 0 {
		return false
	}
	return frac(in.hash(0x9015, 0, 0, 0, id)) < in.plan.PoisonProb
}

// OverlapVerdict decides, deterministically per request id, whether the
// request belongs to a shared coalescing family and which one. overlap
// requests return family in [0, OverlapFamilies); non-overlap requests
// return family -1 (the caller gives them a spec family of their own).
func (in *Injector) OverlapVerdict(id uint64) (family int, overlap bool) {
	if in.plan.OverlapProb <= 0 || in.plan.OverlapFamilies <= 0 {
		return -1, false
	}
	h := in.hash(0x0e1a, 0, 0, 0, id)
	if frac(h) >= in.plan.OverlapProb {
		return -1, false
	}
	return int(splitmix64(h) % uint64(in.plan.OverlapFamilies)), true
}

// StraggleFactor returns the slowdown multiplier for a rank (1 = none).
func (in *Injector) StraggleFactor(rank int) float64 {
	for _, s := range in.plan.Stragglers {
		if s.Rank == rank && s.Factor > 1 {
			return s.Factor
		}
	}
	return 1
}

// StraggleSleep injects the slowdown for one unit of work that took
// `work` wall time: it sleeps (factor-1)×work, capped by the plan.
func (in *Injector) StraggleSleep(rank int, work time.Duration) {
	f := in.StraggleFactor(rank)
	if f <= 1 || work <= 0 {
		return
	}
	d := time.Duration(float64(work) * (f - 1))
	if d > in.plan.MaxStraggleSleep {
		d = in.plan.MaxStraggleSleep
	}
	time.Sleep(d)
}
