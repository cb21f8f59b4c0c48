package vtime

// Virtual-time model of the resident field service
// (internal/fieldserve): an open-loop load generator drives millions of
// requests through the service's admission-control state machine — inline
// hits on warm families while nothing is queued, bounded queue,
// family-locked batches marching only cold columns, one LRU column cache,
// degrade-before-shed, merged batch cancellation with one-column release
// granularity — in pure virtual time, so overload behavior at request
// volumes far beyond what a wall-clock test can drive is still a
// deterministic function of the seed.
// What this measures is policy quality: tail latency, shed rate, and hit
// rate under a given capacity ratio, not kernel speed.

import (
	"container/heap"
	"math"
	"sort"

	"godtfe/internal/fault"
)

// FieldServeConfig drives one simulated serving run.
type FieldServeConfig struct {
	// Service shape, mirroring fieldserve.Options.
	Workers    int
	QueueDepth int

	// Requests is the total open-loop request count; ArrivalRate is the
	// offered load in requests per virtual second (arrivals are jittered
	// deterministically around the mean interarrival).
	Requests    int
	ArrivalRate float64

	// SpecPool is the number of distinct spec families in the cold tail of
	// the request mix; popularity is skewed (quadratic) so a small cache
	// still earns hits. RenderCost is the cold render time per spec,
	// HitCost the column-assembly cost of a hit, BuildCost the one-time mesh
	// build folded into the first render, ColumnCost the cancellation
	// release granularity (one column march).
	SpecPool   int
	RenderCost float64
	HitCost    float64
	BuildCost  float64
	ColumnCost float64

	// DegradeHitFrac is the deterministic per-spec probability that a
	// coarser rendering is resident when the queue is full (the degrade
	// ladder's warmth); 0 disables degradation.
	DegradeHitFrac float64

	// The batcher: workers claim a queued leader, wait BatchWindow virtual
	// seconds, collect up to MaxBatch queued same-family requests, and
	// execute ONE march of the union extent's cold part; later same-family
	// requests assemble from the warm columns.
	BatchWindow float64
	MaxBatch    int

	// WarmFamilies bounds the column-cache model: how many families can
	// hold marched columns at once (LRU beyond that; default 64).
	WarmFamilies int

	// Overlap workload shaping, mirroring fault.Plan's overlap verdicts:
	// OverlapFrac of requests target one of FamilyPool hot spec families
	// at one of ExtentLevels window extents (level k costs (k+1)/levels of
	// a full render); the rest draw from the skewed SpecPool tail at full
	// extent. When Fault carries an overlap plan its verdicts drive the
	// split instead, keyed by request id. Zero values leave every request
	// at full extent in the skewed tail.
	OverlapFrac  float64
	FamilyPool   int
	ExtentLevels int

	// Seed drives arrivals and spec choice; Fault optionally injects
	// request-level slow clients, cancellations, and cache poisoning.
	Seed  int64
	Fault *fault.Injector
}

// FieldServeOutcome summarizes a simulated run.
type FieldServeOutcome struct {
	Served   int // responses delivered, including degraded
	Shed     int
	Degraded int
	Expired  int // cancelled before service completed
	Hits     int // inline hits, plus batches assembled without a march
	Misses   int // batches that marched
	Poisoned int // rotten families caught at their next touch and re-marched
	Builds   int

	Batches   int // batches executed
	Coalesced int // requests served by a batch they did not lead

	P50, P99, Max float64 // served-request latency (virtual seconds)
	Throughput    float64 // served per virtual second
	HitRate       float64 // hits / (hits + misses)
	ShedRate      float64 // shed / total
	Makespan      float64
}

type fsEventKind int

const (
	evArrive fsEventKind = iota
	evBatchExec
	evBatchDone
	evBatchAbort
)

type fsRequest struct {
	id       int
	spec     int     // exact request key, fam*levels + level (seeds the degrade verdict)
	fam      int     // coalescing family (== spec when ExtentLevels is 1)
	level    int     // window extent level, 0..levels-1
	arrive   float64 // submission time (after slow-client delay)
	cancelAt float64 // +Inf when never cancelled
}

type fsEvent struct {
	at   float64
	seq  int // deterministic tie-break
	kind fsEventKind
	req  *fsRequest
}

type fsEventHeap []fsEvent

func (h fsEventHeap) Len() int { return len(h) }
func (h fsEventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h fsEventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *fsEventHeap) Push(x interface{}) { *h = append(*h, x.(fsEvent)) }
func (h *fsEventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

type fsSim struct {
	cfg    FieldServeConfig
	out    FieldServeOutcome
	levels int

	events  fsEventHeap
	seq     int
	clock   float64
	rngSt   uint64
	idle    int
	queue   []*fsRequest
	lruTick int
	built   bool
	lats    []float64

	// Per-family in-flight locks, collected batch members keyed by family,
	// and the column cache: the highest extent level marched per family (a
	// level ≤ warm assembles from cached columns instead of marching),
	// LRU-bounded to WarmFamilies resident families.
	famInflight map[int]bool
	famBatch    map[int][]*fsRequest
	warm        map[int]*fsWarm
}

// fsWarm is one family's column-cache residency. poisoned marks rot in a
// stored column: hit-time verification catches it at the family's next
// touch.
type fsWarm struct {
	level    int
	poisoned bool
	lru      int
}

func fsSplitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (s *fsSim) rand() float64 {
	s.rngSt = fsSplitmix(s.rngSt)
	return float64(s.rngSt>>11) / float64(1<<53)
}

func (s *fsSim) push(at float64, kind fsEventKind, req *fsRequest) {
	s.seq++
	heap.Push(&s.events, fsEvent{at: at, seq: s.seq, kind: kind, req: req})
}

// SimulateFieldServe runs the open-loop load generator against the
// admission-control state machine in virtual time.
func SimulateFieldServe(cfg FieldServeConfig) FieldServeOutcome {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.Workers
	}
	if cfg.SpecPool <= 0 {
		cfg.SpecPool = 256
	}
	if cfg.ArrivalRate <= 0 {
		cfg.ArrivalRate = 100
	}
	if cfg.RenderCost <= 0 {
		cfg.RenderCost = 0.01
	}
	if cfg.ColumnCost <= 0 {
		cfg.ColumnCost = cfg.RenderCost / 64
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 16
	}
	if cfg.ExtentLevels <= 0 {
		cfg.ExtentLevels = 1
	}
	if cfg.FamilyPool <= 0 {
		cfg.FamilyPool = 8
	}
	if cfg.WarmFamilies <= 0 {
		cfg.WarmFamilies = 64
	}
	s := &fsSim{
		cfg:         cfg,
		levels:      cfg.ExtentLevels,
		rngSt:       uint64(cfg.Seed)*2862933555777941757 + 3037000493,
		idle:        cfg.Workers,
		lats:        make([]float64, 0, cfg.Requests),
		famInflight: make(map[int]bool),
		famBatch:    make(map[int][]*fsRequest),
		warm:        make(map[int]*fsWarm),
	}

	// Pre-generate arrivals: jittered open loop, skewed spec popularity,
	// per-request faults from the shared deterministic injector. With
	// overlap shaping on, a slice of the traffic is redirected at hot
	// families with varied extents.
	t := 0.0
	mean := 1 / cfg.ArrivalRate
	for i := 0; i < cfg.Requests; i++ {
		t += mean * (0.5 + s.rand())
		u := s.rand()
		fam := int(u * u * float64(cfg.SpecPool))
		level := s.levels - 1
		if cfg.OverlapFrac > 0 || (cfg.Fault != nil && cfg.Fault.HasOverlapPlan()) {
			hot, hotFam := false, 0
			if cfg.Fault != nil && cfg.Fault.HasOverlapPlan() {
				hotFam, hot = cfg.Fault.OverlapVerdict(uint64(i))
			} else if s.rand() < cfg.OverlapFrac {
				hot, hotFam = true, int(s.rand()*float64(cfg.FamilyPool))
			}
			if hot {
				fam = cfg.SpecPool + hotFam%cfg.FamilyPool
				level = int(s.rand() * float64(s.levels))
			}
		}
		req := &fsRequest{
			id:       i,
			spec:     fam*s.levels + level,
			fam:      fam,
			level:    level,
			arrive:   t,
			cancelAt: math.Inf(1),
		}
		if cfg.Fault != nil {
			v := cfg.Fault.RequestVerdict(uint64(i))
			if v.SlowClient {
				req.arrive += v.Delay.Seconds()
			}
			if v.Cancel {
				req.cancelAt = req.arrive + v.CancelAfter.Seconds()
			}
		}
		s.push(req.arrive, evArrive, req)
	}

	for s.events.Len() > 0 {
		e := heap.Pop(&s.events).(fsEvent)
		s.clock = e.at
		switch e.kind {
		case evArrive:
			s.arrive(e.req)
		case evBatchExec:
			s.batchExec(e.req)
		case evBatchDone:
			s.batchDone(e.req)
		case evBatchAbort:
			s.batchAbort(e.req)
		}
	}

	s.out.Makespan = s.clock
	total := float64(cfg.Requests)
	if s.out.Makespan > 0 {
		s.out.Throughput = float64(s.out.Served) / s.out.Makespan
	}
	if hm := s.out.Hits + s.out.Misses; hm > 0 {
		s.out.HitRate = float64(s.out.Hits) / float64(hm)
	}
	s.out.ShedRate = float64(s.out.Shed) / total
	sort.Float64s(s.lats)
	if n := len(s.lats); n > 0 {
		s.out.P50 = s.lats[n/2]
		s.out.P99 = s.lats[min(n-1, n*99/100)]
		s.out.Max = s.lats[n-1]
	}
	return s.out
}

func (s *fsSim) serveHit(req *fsRequest) {
	s.out.Served++
	s.lats = append(s.lats, s.clock-req.arrive+s.cfg.HitCost)
}

// degradeResident deterministically decides whether a coarser rendering
// of spec is resident for the degrade ladder.
func (s *fsSim) degradeResident(spec int) bool {
	if s.cfg.DegradeHitFrac <= 0 {
		return false
	}
	h := fsSplitmix(uint64(spec)*0x9e3779b97f4a7c15 + uint64(s.cfg.Seed))
	return float64(h>>11)/float64(1<<53) < s.cfg.DegradeHitFrac
}

// arrive is the one arrival path: an inline hit when nothing is queued and
// the family is warm at ≥ the request's extent, else the bounded queue, else
// degrade or shed.
func (s *fsSim) arrive(req *fsRequest) {
	if len(s.queue) == 0 {
		if w := s.touchWarm(req.fam); w != nil && req.level <= w.level {
			s.out.Hits++
			s.serveHit(req)
			return
		}
	}
	if len(s.queue) < s.cfg.QueueDepth {
		s.queue = append(s.queue, req)
		s.dispatch()
		return
	}
	if s.degradeResident(req.spec) {
		s.out.Degraded++
		s.serveHit(req)
		return
	}
	s.out.Shed++
}

// dispatch claims batch leaders: an idle worker takes the first queued
// request whose family is not already executing, marks the family in
// flight, and sits in its batch window. Same-family arrivals stay queued
// behind the lock and join this batch (inside the window) or the next one
// (served from warm columns).
func (s *fsSim) dispatch() {
	for s.idle > 0 {
		idx := -1
		for i, r := range s.queue {
			if !s.famInflight[r.fam] {
				idx = i
				break
			}
		}
		if idx < 0 {
			return
		}
		req := s.queue[idx]
		s.queue = append(s.queue[:idx], s.queue[idx+1:]...)
		if req.cancelAt <= s.clock {
			s.out.Expired++
			continue
		}
		s.idle--
		s.famInflight[req.fam] = true
		s.push(s.clock+s.cfg.BatchWindow, evBatchExec, req)
	}
}

// batchExec fires when the leader's batch window closes: collect up to
// MaxBatch-1 queued same-family followers, compute the union extent, and
// start one shared march covering only the columns the family's cache
// does not already hold. The march aborts early only if EVERY member's
// context dies before it finishes (merged batch cancellation).
func (s *fsSim) batchExec(leader *fsRequest) {
	members := []*fsRequest{leader}
	rest := s.queue[:0]
	for _, r := range s.queue {
		if len(members) < s.cfg.MaxBatch && r.fam == leader.fam {
			members = append(members, r)
		} else {
			rest = append(rest, r)
		}
	}
	s.queue = rest
	s.famBatch[leader.fam] = members
	s.out.Batches++
	s.out.Coalesced += len(members) - 1

	unionLevel := 0
	maxCancel := 0.0
	immortal := false
	for _, m := range members {
		if m.level > unionLevel {
			unionLevel = m.level
		}
		if math.IsInf(m.cancelAt, 1) {
			immortal = true
		} else if m.cancelAt > maxCancel {
			maxCancel = m.cancelAt
		}
	}

	frac := func(l int) float64 { return float64(l+1) / float64(s.levels) }
	cost := s.cfg.HitCost // pure column assembly
	warm := s.touchWarm(leader.fam)
	if warm == nil || unionLevel > warm.level {
		covered := 0.0
		if warm != nil {
			covered = frac(warm.level)
		}
		cost = s.cfg.RenderCost*(frac(unionLevel)-covered) + s.cfg.HitCost
		s.out.Misses++
	} else {
		s.out.Hits++
	}
	if !s.built {
		s.built = true
		s.out.Builds++
		cost += s.cfg.BuildCost
	}
	finish := s.clock + cost
	if !immortal && maxCancel < finish {
		s.push(math.Max(maxCancel+s.cfg.ColumnCost, s.clock), evBatchAbort, leader)
		return
	}
	s.push(finish, evBatchDone, leader)
}

// batchDone completes a batch: if it marched, the family's columns warm up
// to the union extent (with rot in one of them when the leader drew the
// poison verdict), and every surviving member is served its slice at once.
func (s *fsSim) batchDone(leader *fsRequest) {
	members := s.famBatch[leader.fam]
	delete(s.famBatch, leader.fam)
	unionLevel := 0
	for _, m := range members {
		if m.level > unionLevel {
			unionLevel = m.level
		}
	}
	if w := s.warm[leader.fam]; w == nil || unionLevel > w.level {
		poisoned := s.cfg.Fault != nil && s.cfg.Fault.ShouldPoisonCache(uint64(leader.id))
		s.insertWarm(leader.fam, unionLevel, poisoned)
	}

	for _, m := range members {
		if m.cancelAt <= s.clock {
			s.out.Expired++
			continue
		}
		s.out.Served++
		s.lats = append(s.lats, s.clock-m.arrive)
	}
	s.idle++
	delete(s.famInflight, leader.fam)
	s.dispatch()
}

// touchWarm returns the family's verified column residency (refreshing its
// recency), or nil when its columns are not cached. A poisoned family is
// detected here, exactly like hit-time checksum verification: counted,
// dropped, and re-marched by whoever touched it.
func (s *fsSim) touchWarm(fam int) *fsWarm {
	w, ok := s.warm[fam]
	if !ok {
		return nil
	}
	if w.poisoned {
		s.out.Poisoned++
		delete(s.warm, fam)
		return nil
	}
	s.lruTick++
	w.lru = s.lruTick
	return w
}

// insertWarm records a family's columns as cached up to level, evicting
// the least recently used family beyond the WarmFamilies budget.
func (s *fsSim) insertWarm(fam, level int, poisoned bool) {
	s.lruTick++
	if w, ok := s.warm[fam]; ok {
		w.level, w.poisoned, w.lru = level, poisoned, s.lruTick
		return
	}
	s.warm[fam] = &fsWarm{level: level, poisoned: poisoned, lru: s.lruTick}
	for len(s.warm) > s.cfg.WarmFamilies {
		victim, oldest := -1, math.MaxInt
		for id, w := range s.warm {
			if w.lru < oldest {
				victim, oldest = id, w.lru
			}
		}
		delete(s.warm, victim)
	}
}

// batchAbort fires when every member of a batch was cancelled before the
// shared march could finish: the march is abandoned after one column's
// release granularity, nothing is cached, and the family lock is
// released.
func (s *fsSim) batchAbort(leader *fsRequest) {
	members := s.famBatch[leader.fam]
	delete(s.famBatch, leader.fam)
	s.out.Expired += len(members)
	s.idle++
	delete(s.famInflight, leader.fam)
	s.dispatch()
}
