package resource

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"prestolite/internal/fault"
)

// Typed admission errors.
var (
	// ErrQueueFull: the resource group's concurrency slots and its queue are
	// both full (or the group admits nothing). The coordinator maps this to
	// HTTP 429 + Retry-After; the gateway fails the principal over to the
	// next cluster.
	ErrQueueFull = errors.New("resource: admission queue full")
	// ErrQueueTimeout: the query waited longer than the group's
	// MaxQueuedTime without getting a slot.
	ErrQueueTimeout = errors.New("resource: queued past the group's maximum queue time")
)

// GroupConfig describes one resource group (§XII.C: manage the workload,
// don't just raise the limits).
type GroupConfig struct {
	// Name identifies the group (queries pick one with the resource_group
	// session property).
	Name string
	// MaxConcurrency is how many queries of the group run at once. Zero
	// admits nothing: every submission is rejected immediately with
	// ErrQueueFull (a drained/disabled group).
	MaxConcurrency int
	// MaxQueued bounds the FIFO queue behind the running set; submissions
	// past it are rejected with ErrQueueFull.
	MaxQueued int
	// MaxQueuedTime bounds how long one query may sit queued before it is
	// rejected with ErrQueueTimeout. 0 = wait forever.
	MaxQueuedTime time.Duration
	// PerQueryMemory caps each query's memory context when the session does
	// not set query_max_memory. 0 = no per-query cap.
	PerQueryMemory int64
}

// Group is one admission-controlled FIFO queue. Acquire blocks the calling
// query goroutine (the coordinator keeps it in the QUEUED state) until a
// concurrency slot frees up, the wait is cancelled, or it times out.
type Group struct {
	cfg   GroupConfig
	clock fault.Clock

	mu      sync.Mutex
	running int
	queue   []*waiter
}

// waiter is one queued query. granted is closed (under the group lock —
// close never blocks) to hand the slot over; abandoned waiters stay in the
// slice and are skipped at grant time, keeping cancellation O(1).
type waiter struct {
	granted   chan struct{}
	abandoned bool
}

// NewGroup creates a group. clock drives queue timeouts; nil means real
// time (tests pass a ManualClock to bound queued-time deterministically).
func NewGroup(cfg GroupConfig, clock fault.Clock) *Group {
	if clock == nil {
		clock = fault.RealClock{}
	}
	return &Group{cfg: cfg, clock: clock}
}

// Config returns the group's configuration.
func (g *Group) Config() GroupConfig { return g.cfg }

// Depth returns the number of queries queued (the queue_depth gauge).
func (g *Group) Depth() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, w := range g.queue {
		if !w.abandoned {
			n++
		}
	}
	return n
}

// Saturated reports whether a new submission right now would be rejected —
// what the coordinator publishes for the gateway's failover decision.
func (g *Group) Saturated() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cfg.MaxConcurrency <= 0 {
		return true
	}
	if g.running < g.cfg.MaxConcurrency && g.queuedLocked() == 0 {
		return false
	}
	return g.queuedLocked() >= g.cfg.MaxQueued
}

func (g *Group) queuedLocked() int {
	n := 0
	for _, w := range g.queue {
		if !w.abandoned {
			n++
		}
	}
	return n
}

// Acquire claims a concurrency slot, queueing FIFO behind the running set.
// cancel, when non-nil, abandons the wait (a client disconnect or query
// kill); the queue stays consistent and the slot goes to the next waiter.
// The returned release function must be called exactly once when the query
// finishes.
func (g *Group) Acquire(cancel <-chan struct{}) (release func(), err error) {
	g.mu.Lock()
	if g.cfg.MaxConcurrency <= 0 {
		g.mu.Unlock()
		return nil, fmt.Errorf("%w: group %q admits no queries", ErrQueueFull, g.cfg.Name)
	}
	if g.running < g.cfg.MaxConcurrency && g.queuedLocked() == 0 {
		g.running++
		g.mu.Unlock()
		return g.release, nil
	}
	if g.queuedLocked() >= g.cfg.MaxQueued {
		g.mu.Unlock()
		return nil, fmt.Errorf("%w: group %q has %d running and %d queued", ErrQueueFull,
			g.cfg.Name, g.running, g.cfg.MaxQueued)
	}
	w := &waiter{granted: make(chan struct{})}
	g.queue = append(g.queue, w)
	g.mu.Unlock()

	var timeout <-chan time.Time
	if g.cfg.MaxQueuedTime > 0 {
		timeout = g.clock.After(g.cfg.MaxQueuedTime)
	}
	select {
	case <-w.granted:
		return g.release, nil
	case <-cancel:
		return nil, g.abandon(w, fmt.Errorf("resource: query cancelled while queued in group %q", g.cfg.Name))
	case <-timeout:
		return nil, g.abandon(w, fmt.Errorf("%w: group %q after %v", ErrQueueTimeout, g.cfg.Name, g.cfg.MaxQueuedTime))
	}
}

// abandon marks w abandoned; when the grant raced the cancellation, the
// already-granted slot is handed back so no capacity leaks.
func (g *Group) abandon(w *waiter, cause error) error {
	g.mu.Lock()
	select {
	case <-w.granted:
		// The slot was granted concurrently with the cancellation: give it
		// back and pass it on.
		g.running--
		g.grantNextLocked()
		g.mu.Unlock()
		return cause
	default:
	}
	w.abandoned = true
	g.mu.Unlock()
	return cause
}

// release returns a slot and grants the next live waiter.
func (g *Group) release() {
	g.mu.Lock()
	g.running--
	g.grantNextLocked()
	g.mu.Unlock()
}

// grantNextLocked pops abandoned waiters and hands the freed slot to the
// first live one. Called with g.mu held; close() on the grant channel never
// blocks.
func (g *Group) grantNextLocked() {
	for len(g.queue) > 0 {
		w := g.queue[0]
		g.queue[0] = nil
		g.queue = g.queue[1:]
		if w.abandoned {
			continue
		}
		g.running++
		close(w.granted)
		return
	}
}
