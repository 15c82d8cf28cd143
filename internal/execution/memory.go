package execution

import (
	"errors"
	"io"

	"prestolite/internal/block"
	"prestolite/internal/resource"
)

// spillPageRows bounds the rows per page frame written to a spill run (and
// per page emitted by spilled merge paths), keeping read-back reservations
// small.
const spillPageRows = 1024

// opMem is a blocking operator's handle on the query memory context: it
// tracks how many bytes the operator holds, answers "reserve or spill?", and
// turns pool/spill refusals into the user-visible Insufficient Resources
// error (§XII.C).
type opMem struct {
	op       string
	pool     *resource.Pool
	spill    *resource.SpillManager
	reserved int64
}

// newOpMem is the handle of a blocking operator; spills says it has a spill
// path. With spilling enabled such an operator reserves through a yielder
// child of the query pool of its own (resource.Pool.Yielder), which it
// leaves once it reserves no more; any other reserves on the query pool.
func newOpMem(op string, ctx *Context, spills bool) *opMem {
	m := &opMem{op: op, pool: ctx.Memory, spill: ctx.Spill}
	if spills && m.spill != nil {
		m.pool = ctx.Memory.Yielder(op)
	}
	return m
}

// writeRun spills page(0), page(1) … page(n-1), asked for in that order, as
// one run tagged tag and records its bytes against the query. Only call
// when spilling is enabled (reserve has refused a reservation).
func (m *opMem) writeRun(tag string, n int, page func(i int) *block.Page) (*resource.Run, error) {
	w, err := m.spill.NewRun(tag)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if err := w.WritePage(page(i)); err != nil {
			w.Abandon()
			return nil, m.fail(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		return nil, err
	}
	m.pool.AddSpilled(run.Bytes())
	return run, nil
}

// reserve charges n bytes against the query pool. ok=false (with nil error)
// means the reservation was refused and the operator should spill its
// buffer; it is only returned when spilling is possible. A non-nil error
// means the query must fail (already wrapped for the user).
func (m *opMem) reserve(n int64) (ok bool, err error) {
	if n <= 0 {
		return true, nil
	}
	// A refused hard reservation asked for memory back: yield by reporting
	// this reservation refused, which sends the operator down its normal
	// spill path. The request is one-shot and only honored while there is
	// something to give back.
	if m.pool.Asked() && m.reserved > 0 {
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
	err = m.hardReserve(n)
	return err == nil, err
}

// hardReserve charges n bytes with no spill fallback: the pool's ladder
// (resource.Pool.Reserve) asks yielders, may kill, and waits; a refusal
// fails the query.
func (m *opMem) hardReserve(n int64) error {
	if n <= 0 {
		return nil
	}
	if err := m.pool.Reserve(n); err != nil {
		return m.fail(err)
	}
	m.reserved += n
	return nil
}

// releaseAll returns everything the operator still holds.
func (m *opMem) releaseAll() {
	m.pool.Release(m.reserved)
	m.reserved = 0
}

// fail wraps a pool or spill-budget refusal into the §XII.C user-visible
// error; OOM kills pass through typed so the coordinator can report them.
func (m *opMem) fail(err error) error {
	if errors.Is(err, resource.ErrQueryKilledOOM) {
		return err
	}
	e := ErrInsufficientResources{Operator: m.op, Spill: m.spill != nil, Cause: err}
	var ex resource.ExhaustedError
	if errors.As(err, &ex) {
		e.Pool, e.Limit = ex.Pool, ex.Limit
	}
	return e
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
