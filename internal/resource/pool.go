// Package resource implements the cluster's resource-management subsystem:
// hierarchical memory pools with atomic reserve/release and peak tracking,
// spill-to-disk for blocking operators, and admission control with FIFO
// queues per resource group. Together they form the §XII.C degradation
// ladder — account, queue, spill, and only then kill — that replaces the
// hard "Insufficient Resources" failure users complained about.
package resource

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prestolite/internal/fault"
	"prestolite/internal/obs"
)

// Typed sentinels of the degradation ladder. errors.Is works through the
// wrapping the layers add.
var (
	// ErrPoolExhausted: a reservation did not fit a pool's limit. Operators
	// catch it to trigger spilling; when spill is unavailable it surfaces as
	// the classic "Insufficient Resources" failure.
	ErrPoolExhausted = errors.New("resource: memory pool exhausted")
	// ErrQueryKilledOOM: the last rung of the ladder — the OOM killer chose
	// this query (the largest reservation in a pool stuck at its high-water
	// mark) so the rest of the workload could finish.
	ErrQueryKilledOOM = errors.New("resource: query killed by the cluster OOM killer")
)

// ExhaustedError is the concrete error behind ErrPoolExhausted; it names the
// pool that could not fit the reservation so callers can distinguish "the
// query hit its own cap" (spill, don't kill neighbours) from "the shared
// process pool is full" (where the OOM killer may help).
type ExhaustedError struct {
	Pool      string
	Limit     int64
	Requested int64
	Reserved  int64
	pool      *Pool // for Reserve's ladder
}

func (e ExhaustedError) Error() string {
	return fmt.Sprintf("resource: pool %q exhausted: %d bytes requested, %d of %d reserved",
		e.Pool, e.Requested, e.Reserved, e.Limit)
}

// Is makes errors.Is(err, ErrPoolExhausted) true.
func (e ExhaustedError) Is(target error) bool { return target == ErrPoolExhausted }

// memoryWaitMax bounds how long a refused hard reservation waits for memory
// to come back before it fails typed.
const memoryWaitMax = 5 * time.Second

// Pool is one node of the hierarchical memory-pool tree: a process-wide
// worker pool at the root, one child per query (or per task on workers),
// and below that one unlimited yielder per spilling operator. Reserve and
// Release are atomic and propagate to every ancestor, so the root always
// sees the true aggregate reservation; Peak tracks the high-water mark per
// pool for observability.
type Pool struct {
	name   string
	limit  int64 // 0 = unlimited
	parent *Pool

	reserved atomic.Int64
	peak     atomic.Int64
	spilled  atomic.Int64

	killed atomic.Pointer[killMark]

	mu       sync.Mutex
	children map[*Pool]struct{}

	// released is closed by the next release under this pool (or kill); a
	// waiting Reserve creates it. yields marks a Yielder until it leaves;
	// asked is a refused hard reservation's request to it.
	released atomic.Pointer[chan struct{}]
	yields   atomic.Bool
	asked    atomic.Bool

	// Root-only OOM-killer policy (EnableOOMKiller).
	oomKill  atomic.Bool
	oomKills *obs.Counter

	// Root-only time source that bounds a reservation's wait (SetClock);
	// nil means real time.
	clock fault.Clock
}

// killMark records why a pool was killed (boxed for atomic.Pointer).
type killMark struct{ err error }

// NewPool creates a root pool. limit 0 means unlimited.
func NewPool(name string, limit int64) *Pool {
	return &Pool{name: name, limit: limit, children: map[*Pool]struct{}{}}
}

// Child creates a sub-pool (a per-query or per-task memory context) whose
// reservations also count against this pool. limit 0 inherits no extra cap.
func (p *Pool) Child(name string, limit int64) *Pool {
	c := &Pool{name: name, limit: limit, parent: p, children: map[*Pool]struct{}{}}
	p.mu.Lock()
	p.children[c] = struct{}{}
	p.mu.Unlock()
	return c
}

// Yielder creates the unlimited child pool of an operator that gives its
// bytes back without a kill — by spilling when asked (Asked), or at the end
// of a pass — until it leaves (Leave). A refused hard reservation at or
// above it asks it to yield and waits for the bytes.
func (p *Pool) Yielder(name string) *Pool {
	c := p.Child(name, 0)
	c.yields.Store(true)
	return c
}

// Asked reports, once, whether a refused hard reservation asked this
// yielder to yield since the last call. Like TryReserve and Release it
// takes a nil pool, which limits nothing and is never asked.
func (p *Pool) Asked() bool { return p != nil && p.asked.Load() && p.asked.CompareAndSwap(true, false) }

// Leave stops asking this pool to yield: its operator reserves no more and
// keeps what it holds until it closes.
func (p *Pool) Leave() {
	if p != nil {
		p.yields.Store(false)
	}
}

// EnableOOMKiller turns on the last-resort policy at this (root) pool: when
// a reservation finds the pool stuck at its limit, the child with the
// largest reservation is killed so the rest of the workload can finish.
// kills, when non-nil, counts victims (the oom_kills metric).
func (p *Pool) EnableOOMKiller(kills *obs.Counter) {
	p.oomKills = kills
	p.oomKill.Store(true)
}

// SetClock injects the time source that bounds Reserve's wait. Set it on
// the root pool (like EnableOOMKiller); Reserve always consults the root.
func (p *Pool) SetClock(c fault.Clock) {
	if c != nil {
		p.clock = c
	}
}

func (p *Pool) clockOrReal() fault.Clock {
	if p.clock != nil {
		return p.clock
	}
	return fault.RealClock{}
}

// Name returns the pool's name.
func (p *Pool) Name() string { return p.name }

// Reserved returns the current reservation.
func (p *Pool) Reserved() int64 { return p.reserved.Load() }

// Peak returns the high-water mark of the reservation.
func (p *Pool) Peak() int64 { return p.peak.Load() }

// Spilled returns the bytes this pool's operators have spilled to disk.
func (p *Pool) Spilled() int64 { return p.spilled.Load() }

// AddSpilled records n bytes spilled on behalf of this pool (and its
// ancestors, so the root aggregates cluster-wide spill volume).
func (p *Pool) AddSpilled(n int64) {
	for q := p; q != nil; q = q.parent {
		q.spilled.Add(n)
	}
}

// KilledErr returns the OOM-kill error when this pool (or an ancestor) has
// been killed, nil otherwise.
func (p *Pool) KilledErr() error {
	for q := p; q != nil; q = q.parent {
		if m := q.killed.Load(); m != nil {
			return m.err
		}
	}
	return nil
}

// kill marks the pool killed; reservations against it (and its descendants)
// fail with err from now on.
func (p *Pool) kill(err error) {
	p.killed.CompareAndSwap(nil, &killMark{err: err})
}

// TryReserve atomically reserves n bytes against this pool and every
// ancestor. On failure nothing stays reserved and the returned error is an
// ExhaustedError naming the pool that did not fit (or the kill error when
// the query has been OOM-killed).
func (p *Pool) TryReserve(n int64) error {
	if n <= 0 {
		return nil
	}
	if err := p.KilledErr(); err != nil {
		return err
	}
	for q := p; q != nil; q = q.parent {
		if err := q.reserveLocal(n); err != nil {
			// Roll back the levels already reserved: a reservation refused
			// meanwhile because of them may now fit.
			for r := p; r != q; r = r.parent {
				r.reserved.Add(-n)
				r.wake()
			}
			return err
		}
	}
	return nil
}

// reserveLocal reserves n at this level only (CAS against the limit).
func (p *Pool) reserveLocal(n int64) error {
	for {
		cur := p.reserved.Load()
		next := cur + n
		if p.limit > 0 && next > p.limit {
			return ExhaustedError{Pool: p.name, Limit: p.limit, Requested: n, Reserved: cur, pool: p}
		}
		if p.reserved.CompareAndSwap(cur, next) {
			for {
				peak := p.peak.Load()
				if next <= peak || p.peak.CompareAndSwap(peak, next) {
					return nil
				}
			}
		}
	}
}

// Reserve reserves n bytes with no spill fallback — the §XII.C ladder, and
// the only place a reservation waits. While the pool X whose limit refused
// it stays full it asks every yielder at or below X but p to yield; when
// none holds bytes and X is a root with the killer on, it kills the largest
// child unless one killed earlier still holds memory; then it waits for the
// next release under X. It fails at once when its own query is the victim
// or when neither a yielder nor a victim will give memory back, and after
// memoryWaitMax of waiting.
func (p *Pool) Reserve(n int64) error {
	var x *Pool
	var wake <-chan struct{}
	var timeout <-chan time.Time
	for {
		err := p.TryReserve(n)
		ex, ok := err.(ExhaustedError)
		if !ok {
			return err
		}
		if ex.pool != x {
			// Take the refusing pool's signal before trying again, so that
			// a release in between is not lost.
			x, wake = ex.pool, ex.pool.releasedSignal()
			continue
		}
		coming := x.ask(p)
		if !coming && x.parent == nil && x.oomKill.Load() {
			var killErr error
			if coming, killErr = x.oomKillFor(p); killErr != nil {
				return killErr
			}
		}
		if !coming {
			return err
		}
		if timeout == nil {
			timeout = p.root().clockOrReal().After(memoryWaitMax)
		}
		select {
		case <-wake:
			wake = x.releasedSignal()
		case <-timeout:
			return err
		}
	}
}

// ask flags every yielder at or below p that holds bytes, except self, and
// reports whether it flagged any.
func (p *Pool) ask(self *Pool) bool {
	asked := p != self && p.yields.Load() && p.reserved.Load() > 0
	if asked {
		p.asked.Store(true)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.children {
		asked = c.ask(self) || asked
	}
	return asked
}

// releasedSignal returns the channel the next release under p closes.
func (p *Pool) releasedSignal() <-chan struct{} {
	for {
		if c := p.released.Load(); c != nil {
			return *c
		}
		c := make(chan struct{})
		if p.released.CompareAndSwap(nil, &c) {
			return c
		}
	}
}

// wake closes p's release signal, if a waiter took one.
func (p *Pool) wake() {
	if c := p.released.Load(); c != nil && p.released.CompareAndSwap(c, nil) {
		close(*c)
	}
}

// Release returns n bytes to this pool and every ancestor.
func (p *Pool) Release(n int64) {
	if n <= 0 {
		return
	}
	for q := p; q != nil; q = q.parent {
		q.reserved.Add(-n)
		q.wake()
	}
}

// Close releases whatever the pool still holds and detaches it from its
// parent. Call it when the query (or task) finishes, so leaked reservations
// from failed operators cannot poison the shared pool.
func (p *Pool) Close() {
	rem := p.reserved.Swap(0)
	p.wake()
	if p.parent != nil {
		p.parent.Release(rem)
		p.parent.mu.Lock()
		delete(p.parent.children, p)
		p.parent.mu.Unlock()
	}
}

func (p *Pool) root() *Pool {
	q := p
	for q.parent != nil {
		q = q.parent
	}
	return q
}

// topAncestorBelow returns the ancestor of p that is a direct child of
// root (p itself when it is one).
func (p *Pool) topAncestorBelow(root *Pool) *Pool {
	q := p
	for q.parent != nil && q.parent != root {
		q = q.parent
	}
	return q
}

// oomKillFor runs one round of the OOM policy for a blocked reservation at
// origin: unless a child killed earlier still holds memory, it kills the
// live child with the largest reservation (ties by name) and wakes the
// waiters under it. It returns the kill error when that child is origin's
// own query, and otherwise whether a victim's memory is still to come back.
func (p *Pool) oomKillFor(origin *Pool) (bool, error) {
	originTop := origin.topAncestorBelow(p)
	p.mu.Lock()
	var victim *Pool
	var victimSize int64
	for c := range p.children {
		if c.killed.Load() != nil {
			if c.reserved.Load() > 0 {
				p.mu.Unlock()
				return true, nil // one victim at a time: let it unwind
			}
			continue
		}
		if sz := c.reserved.Load(); victim == nil || sz > victimSize ||
			(sz == victimSize && c.name < victim.name) {
			victim, victimSize = c, sz
		}
	}
	p.mu.Unlock()
	if victim == nil || victimSize == 0 {
		return false, nil
	}
	killErr := fmt.Errorf("%w: %s held %d bytes of pool %s (limit %d)",
		ErrQueryKilledOOM, victim.name, victimSize, p.name, p.limit)
	victim.kill(killErr)
	victim.wake()
	p.wake()
	if p.oomKills != nil {
		p.oomKills.Inc()
	}
	if victim == originTop {
		return false, killErr
	}
	return true, nil
}
