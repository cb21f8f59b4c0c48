// Package fieldserve is the resident field service: it registers
// particle catalogs, builds each Delaunay mesh exactly once (single-flight
// build coalescing), pins the immutable SoA mesh as a shared serving
// asset, and serves many concurrent surface-density renders through a
// small request API.
//
// Robustness is the core contract, not an afterthought:
//
//   - Every request carries a context.Context. Cancellation or a deadline
//     propagates into the marching kernel, which polls a cancel flag once
//     per column — a dead request releases its serving worker within one
//     column march, never at the end of the grid.
//   - Admission is a bounded queue. When the queue is full the service
//     sheds load explicitly with a typed *OverloadError carrying a
//     retry-after hint; it never queues unboundedly and never blocks the
//     caller on a full queue.
//   - Before shedding, the service tries graceful degradation: if the
//     columns of a coarser rendering of the same field are resident it is
//     assembled and served immediately, flagged Degraded, instead of an
//     error.
//   - Marched columns are cached in one LRU; every read re-verifies the
//     column's FNV-1a checksum, so a poisoned entry is detected, evicted,
//     and re-marched rather than served.
package fieldserve

import (
	"errors"
	"fmt"
	"time"
)

// Sentinel errors. Match with errors.Is; OverloadError additionally
// carries structured shed metadata.
var (
	// ErrOverloaded marks a request shed by admission control.
	ErrOverloaded = errors.New("fieldserve: overloaded")
	// ErrClosed marks a request submitted to (or stranded in) a service
	// that has been shut down.
	ErrClosed = errors.New("fieldserve: service closed")
	// ErrUnknownCatalog marks a request naming an unregistered catalog.
	ErrUnknownCatalog = errors.New("fieldserve: unknown catalog")
)

// OverloadError is the typed load-shedding error: the admission queue was
// full and no degraded fallback was cached. RetryAfter is the service's
// estimate of when capacity frees up (current queue drained at the
// exponentially-averaged render rate); QueueDepth is the queue length
// observed at shed time.
type OverloadError struct {
	RetryAfter time.Duration
	QueueDepth int
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("fieldserve: overloaded (queue depth %d, retry after %v)", e.QueueDepth, e.RetryAfter)
}

// Unwrap lets errors.Is(err, ErrOverloaded) match.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }
