package execution

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/resource"
)

// spillPageRows bounds the rows per page frame written to a spill run (and
// per page emitted by spilled merge paths), keeping read-back reservations
// small.
const spillPageRows = 1024

// Revocation pacing: a starved hard reservation polls the pool while flagged
// siblings spill; past the deadline it fails typed, exactly as it would have
// without revocation.
const (
	revokePollInterval = 2 * time.Millisecond
	revokeWaitMax      = 5 * time.Second
)

// revokeHub coordinates cooperative memory revocation among the spillable
// operators of one query. With intra-task parallelism, many spillable
// operators share the query pool concurrently; an operator that just spilled
// its own buffer can still see its page-sized hard reservation refused
// because siblings hold the rest of the pool in soft reservations they would
// happily spill — they just haven't been refused yet. The hub closes that
// starvation window: the starved operator flags every sibling, each sibling
// voluntarily yields (reports its next soft reserve as refused, taking its
// normal spill path) when it sees its flag, and the starved reservation
// retries as the pool drains. Everything stays on each operator's own
// goroutine — the hub only ever touches atomic flags, never operator state.
type revokeHub struct {
	mu      sync.Mutex
	members []*opMem
}

func (h *revokeHub) add(m *opMem) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.members = append(h.members, m)
}

// requestExcept flags every member but me, reporting whether any sibling
// exists to yield.
func (h *revokeHub) requestExcept(me *opMem) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, m := range h.members {
		if m != me {
			m.revoke.Store(true)
			n++
		}
	}
	return n > 0
}

// opMem is a blocking operator's handle on the query memory context: it
// tracks how many bytes the operator holds, answers "reserve or spill?", and
// turns pool/spill refusals into the user-visible Insufficient Resources
// error (§XII.C).
type opMem struct {
	op       string
	pool     *resource.Pool
	spill    *resource.SpillManager
	reserved int64

	// hub wires this operator into the query's revocation set (spillable
	// operators only); revoke is the incoming "please yield" flag, checked on
	// the next soft reserve.
	hub    *revokeHub
	revoke atomic.Bool
}

// newOpMem is the handle of a spillable operator: with spilling enabled it
// joins the query's revocation hub as a member that yields when asked.
func newOpMem(op string, ctx *Context) *opMem {
	m := newHardOpMem(op, ctx)
	m.spill = ctx.Spill
	if m.hub != nil {
		m.hub.add(m)
	}
	return m
}

// newHardOpMem is the handle of an operator that cannot spill: it reserves
// hard only, so it may ask the hub's members to yield but never joins them.
// Both constructors run while the plan is built — before any driver
// goroutine starts — so lazily creating the query's shared hub is
// single-threaded.
func newHardOpMem(op string, ctx *Context) *opMem {
	m := &opMem{op: op, pool: ctx.Memory}
	if ctx.Spill != nil {
		if ctx.revoke == nil {
			ctx.revoke = &revokeHub{}
		}
		m.hub = ctx.revoke
	}
	return m
}

// newRun opens a spill run tagged with the operator name. Only call when
// spilling is enabled (reserve has refused a reservation).
func (m *opMem) newRun(tag string) (*resource.RunWriter, error) {
	return m.spill.NewRun(tag)
}

// reserve charges n bytes against the query pool. ok=false (with nil error)
// means the reservation was refused and the operator should spill its
// buffer; it is only returned when spilling is possible. A non-nil error
// means the query must fail (already wrapped for the user).
func (m *opMem) reserve(n int64) (ok bool, err error) {
	if n <= 0 {
		return true, nil
	}
	// A starved sibling asked for memory back: yield by reporting this
	// reservation refused, which sends the operator down its normal spill
	// path. The flag is one-shot and only honored while there is something
	// to give back.
	if m.hub != nil && m.revoke.Load() && m.revoke.CompareAndSwap(true, false) && m.reserved > 0 {
		return false, nil
	}
	err = m.pool.TryReserve(n)
	if err == nil {
		m.reserved += n
		return true, nil
	}
	if m.spill != nil && errors.Is(err, resource.ErrPoolExhausted) {
		return false, nil
	}
	if err := m.hardReserveErr(n); err != nil {
		return false, err
	}
	return true, nil
}

// hardReserve charges n bytes with no spill fallback: the pool may escalate
// to the root's OOM killer; a refusal fails the query.
func (m *opMem) hardReserve(n int64) error {
	if n <= 0 {
		return nil
	}
	return m.hardReserveErr(n)
}

func (m *opMem) hardReserveErr(n int64) error {
	err := m.pool.Reserve(n)
	if err == nil {
		m.reserved += n
		return nil
	}
	// Pool exhausted, but sibling spillable operators hold most of it in
	// reservations they can shed: request revocation and poll while they
	// spill. Sleeping here is safe — this operator holds no locks, and the
	// siblings run on their own driver goroutines.
	if m.hub != nil && errors.Is(err, resource.ErrPoolExhausted) {
		deadline := time.Now().Add(revokeWaitMax)
		for m.hub.requestExcept(m) {
			time.Sleep(revokePollInterval)
			if err = m.pool.Reserve(n); err == nil {
				m.reserved += n
				return nil
			}
			if !errors.Is(err, resource.ErrPoolExhausted) || time.Now().After(deadline) {
				break
			}
		}
	}
	return m.fail(err)
}

// release returns n bytes (clamped to what the operator holds).
func (m *opMem) release(n int64) {
	if n > m.reserved {
		n = m.reserved
	}
	if n <= 0 {
		return
	}
	m.pool.Release(n)
	m.reserved -= n
}

// releaseAll returns everything the operator still holds.
func (m *opMem) releaseAll() { m.release(m.reserved) }

// addSpilled records spilled bytes against the query (the spilled_bytes
// stat aggregated up the pool tree).
func (m *opMem) addSpilled(n int64) { m.pool.AddSpilled(n) }

// fail wraps a pool or spill-budget refusal into the §XII.C user-visible
// error; OOM kills pass through typed so the coordinator can report them.
func (m *opMem) fail(err error) error {
	if errors.Is(err, resource.ErrQueryKilledOOM) {
		return err
	}
	limit := m.pool.Limit()
	var ex resource.ExhaustedError
	if errors.As(err, &ex) {
		limit = ex.Limit
	}
	return ErrInsufficientResources{Operator: m.op, Limit: limit, Cause: err}
}

// runSource reads one spilled run back as an Operator, so a merge over runs
// (external sort, spilled aggregation) is a merge over streams. The file is
// removed as soon as it has been read to the end, or at Close. Read-back
// pages are transient engine overhead (one bounded frame per open run), not
// user memory: charging them against the query cap that just forced the
// spill would deadlock the merge.
type runSource struct {
	run *resource.Run
	rr  *resource.RunReader
}

func (s *runSource) Next() (*block.Page, error) {
	if s.run == nil {
		return nil, io.EOF
	}
	if s.rr == nil {
		rr, err := s.run.Open()
		if err != nil {
			return nil, err
		}
		s.rr = rr
	}
	p, err := s.rr.Next()
	if errors.Is(err, io.EOF) {
		if err := s.Close(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	return p, err
}

func (s *runSource) Close() error {
	if s.run == nil {
		return nil
	}
	var err error
	if s.rr != nil {
		err = s.rr.Close()
	}
	s.run.Remove()
	s.run, s.rr = nil, nil
	return err
}
