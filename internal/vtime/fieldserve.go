package vtime

// Virtual-time model of the resident field service
// (internal/fieldserve): an open-loop load generator drives millions of
// requests through the service's admission-control state machine — LRU
// cache with single-flight fill, bounded queue, degrade-before-shed,
// per-request cancellation with one-column release granularity — in pure
// virtual time, so overload behavior at request volumes far beyond what
// a wall-clock test can drive is still a deterministic function of the
// seed. What this measures is policy quality: tail latency, shed rate,
// and hit rate under a given capacity ratio, not kernel speed.

import (
	"container/heap"
	"math"
	"sort"

	"godtfe/internal/fault"
)

// FieldServeConfig drives one simulated serving run.
type FieldServeConfig struct {
	// Service shape, mirroring fieldserve.Options.
	Workers      int
	QueueDepth   int
	CacheEntries int

	// Requests is the total open-loop request count; ArrivalRate is the
	// offered load in requests per virtual second (arrivals are jittered
	// deterministically around the mean interarrival).
	Requests    int
	ArrivalRate float64

	// SpecPool is the number of distinct (catalog, spec) keys in the
	// request mix; popularity is skewed (quadratic) so a small cache
	// still earns hits. RenderCost is the cold render time per spec,
	// HitCost the inline cache-hit cost, BuildCost the one-time mesh
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

	// Coalesce enables the plan-based batcher model: workers claim a
	// queued leader, wait BatchWindow virtual seconds, collect up to
	// MaxBatch queued same-family requests, and execute ONE march of the
	// union extent; later same-family batches assemble from the warm
	// column cache. Coalesce=false models exact-key single-flight only
	// (the service as it was before batching; the live service's nearest
	// setting is MaxBatch -1 with ColumnCacheCells -1). It is the overlap
	// experiment's independent variable, not a knob the service has.
	Coalesce    bool
	BatchWindow float64
	MaxBatch    int

	// WarmFamilies bounds the column-cache model: how many families can
	// hold marched columns at once (LRU beyond that). Defaults to
	// CacheEntries, matching a column budget sized like the grid cache.
	WarmFamilies int

	// Overlap workload shaping, mirroring fault.Plan's overlap verdicts:
	// OverlapFrac of requests target one of FamilyPool hot spec families
	// at one of ExtentLevels window extents (level k costs (k+1)/levels of
	// a full render); the rest draw from the skewed SpecPool tail at full
	// extent. When Fault carries an overlap plan its verdicts drive the
	// split instead, keyed by request id. Zero values reproduce the
	// pre-coalescing workload exactly.
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
	Deduped  int // coalesced onto another request's in-flight render
	Hits     int
	Misses   int
	Poisoned int // poisoned entries caught and recomputed
	Builds   int

	Batches   int // shared marches executed by the batcher (coalesce mode)
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
	evRenderDone
	evRenderAbort
	evBatchExec
	evBatchDone
	evBatchAbort
)

type fsRequest struct {
	id       int
	spec     int     // exact cache key: fam*levels + level
	fam      int     // coalescing family (== spec when ExtentLevels is 1)
	level    int     // window extent level, 0..levels-1
	costFrac float64 // (level+1)/levels: this extent's share of a full march
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

// fsFlight is one in-progress single-flight render.
type fsFlight struct {
	leader    *fsRequest
	followers []*fsRequest
}

// fsCacheEntry tracks residency + poison state for one spec.
type fsCacheEntry struct {
	spec     int
	poisoned bool
	lru      int // last-touch counter
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
	cache   map[int]*fsCacheEntry
	flights map[int]*fsFlight
	lruTick int
	built   bool
	lats    []float64

	// Coalesce-mode state: per-family in-flight locks, collected batch
	// members keyed by family, and the column-cache warmth model — the
	// highest extent level marched per family (a level ≤ warm assembles
	// from cached columns instead of marching), LRU-bounded to
	// WarmFamilies resident families.
	famInflight map[int]bool
	famBatch    map[int][]*fsRequest
	warm        map[int]*fsWarm
}

// fsWarm is one family's column-cache residency.
type fsWarm struct {
	level int
	lru   int
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
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 64
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
		cfg.WarmFamilies = cfg.CacheEntries
	}
	s := &fsSim{
		cfg:         cfg,
		levels:      cfg.ExtentLevels,
		rngSt:       uint64(cfg.Seed)*2862933555777941757 + 3037000493,
		idle:        cfg.Workers,
		cache:       make(map[int]*fsCacheEntry),
		flights:     make(map[int]*fsFlight),
		lats:        make([]float64, 0, cfg.Requests),
		famInflight: make(map[int]bool),
		famBatch:    make(map[int][]*fsRequest),
		warm:        make(map[int]*fsWarm),
	}

	// Pre-generate arrivals: jittered open loop, skewed spec popularity,
	// per-request faults from the shared deterministic injector. With
	// overlap shaping on, a slice of the traffic is redirected at hot
	// families with varied extents; the zero config draws exactly the
	// pre-coalescing request stream.
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
			costFrac: float64(level+1) / float64(s.levels),
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
		case evRenderDone:
			s.renderDone(e.req)
		case evRenderAbort:
			s.renderAbort(e.req)
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

// lookup is a verified cache probe: poisoned entries are detected,
// evicted, and counted, exactly like hit-time checksum verification.
func (s *fsSim) lookup(spec int) bool {
	e, ok := s.cache[spec]
	if !ok {
		return false
	}
	if e.poisoned {
		s.out.Poisoned++
		delete(s.cache, spec)
		return false
	}
	s.lruTick++
	e.lru = s.lruTick
	return true
}

func (s *fsSim) insert(spec int, poisoned bool) {
	s.lruTick++
	s.cache[spec] = &fsCacheEntry{spec: spec, poisoned: poisoned, lru: s.lruTick}
	for len(s.cache) > s.cfg.CacheEntries {
		victim, oldest := -1, math.MaxInt
		for id, e := range s.cache {
			if e.lru < oldest {
				victim, oldest = id, e.lru
			}
		}
		delete(s.cache, victim)
	}
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

func (s *fsSim) arrive(req *fsRequest) {
	if s.lookup(req.spec) {
		s.out.Hits++
		s.serveHit(req)
		return
	}
	if s.cfg.Coalesce {
		if len(s.queue) < s.cfg.QueueDepth {
			s.queue = append(s.queue, req)
			s.dispatchCo()
			return
		}
	} else {
		if s.idle > 0 && len(s.queue) == 0 {
			s.assign(req)
			return
		}
		if len(s.queue) < s.cfg.QueueDepth {
			s.queue = append(s.queue, req)
			return
		}
	}
	if s.degradeResident(req.spec) {
		s.out.Degraded++
		s.serveHit(req)
		return
	}
	s.out.Shed++
}

// assign hands req to an idle worker: join an in-flight render for the
// same spec, or lead a new one.
func (s *fsSim) assign(req *fsRequest) {
	if f, ok := s.flights[req.spec]; ok {
		s.idle--
		s.out.Deduped++
		f.followers = append(f.followers, req)
		return
	}
	s.idle--
	s.out.Misses++
	cost := s.cfg.RenderCost * req.costFrac
	if !s.built {
		s.built = true
		s.out.Builds++
		cost += s.cfg.BuildCost
	}
	finish := s.clock + cost
	s.flights[req.spec] = &fsFlight{leader: req}
	if req.cancelAt < finish {
		// Cancelled mid-march: the worker releases one column later.
		s.push(req.cancelAt+s.cfg.ColumnCost, evRenderAbort, req)
		return
	}
	s.push(finish, evRenderDone, req)
}

func (s *fsSim) renderDone(req *fsRequest) {
	f := s.flights[req.spec]
	delete(s.flights, req.spec)
	poisoned := s.cfg.Fault != nil && s.cfg.Fault.ShouldPoisonCache(uint64(req.id))
	s.insert(req.spec, poisoned)

	freed := 1
	if req.cancelAt <= s.clock {
		s.out.Expired++
	} else {
		s.out.Served++
		s.lats = append(s.lats, s.clock-req.arrive)
	}
	for _, fo := range f.followers {
		freed++
		if fo.cancelAt <= s.clock {
			s.out.Expired++
			continue
		}
		s.out.Hits++
		s.out.Served++
		s.lats = append(s.lats, s.clock-fo.arrive)
	}
	s.idle += freed
	s.dispatch()
}

// renderAbort is a leader cancelled mid-render: the cache is not filled,
// and a surviving follower takes over the flight as the new leader.
func (s *fsSim) renderAbort(req *fsRequest) {
	f := s.flights[req.spec]
	s.out.Expired++
	s.idle++

	var next *fsRequest
	rest := f.followers[:0]
	for _, fo := range f.followers {
		if next == nil && fo.cancelAt > s.clock {
			next = fo
			continue
		}
		if fo.cancelAt <= s.clock {
			s.out.Expired++
			s.idle++
			continue
		}
		rest = append(rest, fo)
	}
	if next == nil {
		delete(s.flights, req.spec)
		s.dispatch()
		return
	}
	// The survivor retries: a fresh render from now, same flight.
	f.leader = next
	f.followers = rest
	s.out.Misses++
	finish := s.clock + s.cfg.RenderCost*next.costFrac
	if next.cancelAt < finish {
		s.push(next.cancelAt+s.cfg.ColumnCost, evRenderAbort, next)
	} else {
		s.push(finish, evRenderDone, next)
	}
	s.dispatch()
}

// dispatch drains the queue onto idle workers, dropping requests whose
// context died while queued.
func (s *fsSim) dispatch() {
	for s.idle > 0 && len(s.queue) > 0 {
		req := s.queue[0]
		s.queue = s.queue[1:]
		if req.cancelAt <= s.clock {
			s.out.Expired++
			continue
		}
		if s.lookup(req.spec) {
			// Filled while queued; served off the worker instantly.
			s.out.Hits++
			s.serveHit(req)
			continue
		}
		s.assign(req)
	}
}

// --- coalesce-mode machinery (the batcher model) ---

// dispatchCo claims batch leaders: an idle worker takes the first queued
// request whose family is not already executing, marks the family in
// flight, and sits in its batch window. Same-family arrivals stay queued
// behind the lock and join this batch (inside the window) or the next one
// (served from warm columns).
func (s *fsSim) dispatchCo() {
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
		if s.lookup(req.spec) {
			s.out.Hits++
			s.serveHit(req)
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

// batchDone completes a shared march: the family's columns warm up to the
// union extent, the union grid enters the whole-grid cache, and every
// surviving member is served its slice at once.
func (s *fsSim) batchDone(leader *fsRequest) {
	members := s.famBatch[leader.fam]
	delete(s.famBatch, leader.fam)
	unionLevel := 0
	for _, m := range members {
		if m.level > unionLevel {
			unionLevel = m.level
		}
	}
	s.insertWarm(leader.fam, unionLevel)
	poisoned := s.cfg.Fault != nil && s.cfg.Fault.ShouldPoisonCache(uint64(leader.id))
	s.insert(leader.fam*s.levels+unionLevel, poisoned)

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
	s.dispatchCo()
}

// touchWarm returns the family's column residency (refreshing its
// recency), or nil when its columns are not cached.
func (s *fsSim) touchWarm(fam int) *fsWarm {
	w, ok := s.warm[fam]
	if !ok {
		return nil
	}
	s.lruTick++
	w.lru = s.lruTick
	return w
}

// insertWarm records a family's columns as cached up to level, evicting
// the least recently used family beyond the WarmFamilies budget.
func (s *fsSim) insertWarm(fam, level int) {
	s.lruTick++
	if w, ok := s.warm[fam]; ok {
		if level > w.level {
			w.level = level
		}
		w.lru = s.lruTick
		return
	}
	s.warm[fam] = &fsWarm{level: level, lru: s.lruTick}
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
	s.dispatchCo()
}
