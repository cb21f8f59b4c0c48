package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans are recorded by
// the harness around its own calls into a layer's public functions;
// nothing inside the program is instrumented. Counts read at the same
// boundary (tets built, steps marched, ...) ride along.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"` // 0: root
	Req     int                `json:"req"`    // block or request index
	Layer   string             `json:"layer"`
	Name    string             `json:"name"`
	StartNs int64              `json:"start_ns"`
	EndNs   int64              `json:"end_ns"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer records nothing, so untraced blocks pay one nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(parent, req int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Layer: layer, Name: name, StartNs: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// end closes span id, attaching counts read at the boundary.
func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.spans[id-1].Counts = counts
	t.mu.Unlock()
}

// annotate adds counts to a closed span (counts that are read outside
// the timed section).
func (t *tracer) annotate(id int, counts map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	if t.spans[id-1].Counts == nil {
		t.spans[id-1].Counts = map[string]float64{}
	}
	for k, v := range counts {
		t.spans[id-1].Counts[k] = v
	}
	t.mu.Unlock()
}

// spanCost measures, in seconds, what recording one span costs (a begin
// and an end on a scratch tracer).
func spanCost() float64 {
	t := newTracer()
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin(0, i, "probe", "span"), nil)
	}
	return time.Since(t0).Seconds() / n
}

func (s *span) dur() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// selfTimes returns, per span id, the span's duration minus the part of
// it its direct children cover.
func (t *tracer) selfTimes() map[int]float64 {
	self := make(map[int]float64, len(t.spans))
	for i := range t.spans {
		self[t.spans[i].ID] = t.spans[i].dur()
	}
	for i := range t.spans {
		if p := t.spans[i].Parent; p != 0 {
			self[p] -= t.spans[i].dur()
		}
	}
	return self
}

// medianBy returns the median duration (seconds) over requests of the
// spans named layer/name; a request with several such spans contributes
// their sum.
func (t *tracer) medianBy(layer, name string) float64 {
	if t == nil {
		return 0
	}
	per := map[int]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Layer == layer && s.Name == name {
			per[s.Req] += s.dur()
		}
	}
	v := make([]float64, 0, len(per))
	for _, d := range per {
		v = append(v, d)
	}
	return median(v)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
