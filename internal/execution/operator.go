// Package execution implements the vectorized physical operators (§III:
// "Presto is a vectorized engine, which processes a bunch of in memory
// encoded column values vectorized, instead of row by row") and the
// plan-to-operator builder.
package execution

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"prestolite/internal/block"
	"prestolite/internal/connector"
	"prestolite/internal/expr"
	"prestolite/internal/obs"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
)

// Operator produces a stream of pages. Next returns io.EOF when exhausted.
type Operator interface {
	Next() (*block.Page, error)
	Close() error
}

// Context carries what operators need at runtime.
type Context struct {
	Catalogs *connector.Registry
	// RemoteSources resolves RemoteSource nodes to operators (nil outside
	// distributed execution).
	RemoteSources func(fragmentID int, cols []planner.Column) (Operator, error)
	// Splits optionally pins the splits a TableScan should process (used by
	// distributed tasks); nil means "enumerate all splits".
	Splits map[string][]connector.Split // key: catalog.schema.table
	// Memory is the query's memory context (a child of the process-wide
	// pool, limited to query_max_memory). Every blocking operator — hash
	// join build, spatial join build, sort, hash aggregation — reserves its
	// buffered bytes through it, and a refusal is the §XII.C "Insufficient
	// Resources" error. With Spill set, an operator that can spill reserves
	// through a yielder child of its own: a refused hard reservation at or
	// above it asks it to spill before the pool kills or waits
	// (resource.Pool.Reserve). Build gives a context that has none an
	// unlimited pool of its own.
	Memory *resource.Pool
	// Spill, when non-nil, lets blocking operators spill buffered pages to
	// disk instead of failing when a reservation is refused — the §XII.C
	// degradation ladder's third rung. nil = spill disabled.
	Spill *resource.SpillManager
	// Stats, when non-nil, makes Build wrap every operator so it records
	// rows/bytes, wall time and batch counts (the observability subsystem;
	// used by EXPLAIN ANALYZE and worker task reporting).
	Stats *obs.TaskStats
	// Ctx cancels the query: scans check it between pages and splits, and
	// local-exchange producers check it between sends, so a cancelled task
	// stops all of its drivers promptly. Build replaces nil with
	// context.Background().
	Ctx context.Context
	// Drivers is the intra-task parallelism degree: how many concurrent
	// pipelines Build runs over the plan's split queues (§III's drivers).
	// ≤1 means serial — no exchange, no goroutine.
	Drivers int

	// The two fields below are set only by this package's tests.
	//
	// adaptiveExchangeRows overrides the row threshold below which a
	// partitioned local exchange collapses to a low-cardinality plan
	// (gather or broadcast). 0 means the default; negative disables the
	// adaptation entirely.
	adaptiveExchangeRows int
	// partialAggBypassRows overrides how many input rows a partial
	// aggregation hashes before checking its reduction ratio and, when
	// nearly every row opens a new group, switching to pass-through
	// (adaptive partial aggregation). 0 means the default; negative
	// disables the bypass.
	partialAggBypassRows int

	// ids assigns pre-order plan-node ids, computed on the first Build call
	// when Stats is enabled (see instrument.go).
	ids map[planner.Node]int
	// opStats caches the shared per-plan-node stats sink so the N driver
	// instances of one plan operator record into one accumulator (their
	// atomics make that safe) instead of registering N duplicate rows.
	opStats map[planner.Node]*obs.OperatorStats
}

// ErrInsufficientResources is returned when a blocking operator exceeds a
// memory pool's limit — the top complaint in the paper's user surveys
// (§XII.C): "when users are joining two large tables, Presto will return an
// error with message Insufficient Resources".
type ErrInsufficientResources struct {
	Operator string
	// Pool and Limit name the pool that refused the reservation (the query's
	// or the process's); both are zero when spilling itself failed.
	Pool  string
	Limit int64
	// Spill says the operator had a spill manager: spill was on.
	Spill bool
	// Cause is the underlying pool/spill error (resource.ErrPoolExhausted,
	// resource.ErrSpillBudgetExhausted, ...); errors.Is sees through it.
	Cause error
}

func (e ErrInsufficientResources) Error() string {
	what := fmt.Sprintf("exceeded the %d-byte limit of memory pool %q", e.Limit, e.Pool)
	if e.Pool == "" {
		what = "could not spill"
	}
	advice := ", or enable spill_enabled"
	if e.Spill {
		advice = ""
	}
	return fmt.Sprintf("Insufficient Resources: %s %s; retry on a batch engine (e.g. Presto on Spark) or raise query_max_memory%s (%v)",
		e.Operator, what, advice, e.Cause)
}

// Unwrap exposes the underlying resource error.
func (e ErrInsufficientResources) Unwrap() error { return e.Cause }

// unionOperator concatenates its children's streams (UNION ALL): drain one
// source fully, then move to the next.
type unionOperator struct {
	children []Operator
	idx      int
}

func (u *unionOperator) Next() (*block.Page, error) {
	for u.idx < len(u.children) {
		p, err := u.children[u.idx].Next()
		if errors.Is(err, io.EOF) {
			_ = u.children[u.idx].Close() // close-as-you-go; Close re-checks survivors
			u.children[u.idx] = nil
			u.idx++
			continue
		}
		return p, err
	}
	return nil, io.EOF
}

func (u *unionOperator) Close() error {
	var first error
	for i, c := range u.children {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
		u.children[i] = nil
	}
	return first
}

// Drain pulls all pages from op, closing it afterwards. It is the driver of
// the pipeline under op: a lazy column that fails to load while an operator
// reads it fails the drain.
func Drain(op Operator) (out []*block.Page, err error) {
	defer op.Close()
	defer func() {
		if lerr := block.RecoveredLoadError(recover()); lerr != nil {
			out, err = nil, lerr
		}
	}()
	for {
		p, err := op.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if p != nil && p.Count() > 0 {
			out = append(out, p)
		}
	}
}

// ---------------------------------------------------------------------------

type valuesOperator struct {
	node *planner.Values
	done bool
}

func newValuesOperator(v *planner.Values) *valuesOperator { return &valuesOperator{node: v} }

func (o *valuesOperator) Next() (*block.Page, error) {
	if o.done {
		return nil, io.EOF
	}
	o.done = true
	if len(o.node.Cols) == 0 {
		// zero-column relation still carries its row count
		return &block.Page{N: len(o.node.Rows)}, nil
	}
	builders := make([]block.Builder, len(o.node.Cols))
	for i, c := range o.node.Cols {
		builders[i] = block.NewBuilder(c.Type, len(o.node.Rows))
	}
	for _, row := range o.node.Rows {
		for i, v := range row {
			builders[i].Append(v)
		}
	}
	blocks := make([]block.Block, len(builders))
	for i, b := range builders {
		blocks[i] = b.Build()
	}
	return block.NewPage(blocks...), nil
}

func (o *valuesOperator) Close() error { return nil }

// ---------------------------------------------------------------------------

// splitQueue hands out a table's splits to the scan drivers sharing it. A
// single atomic cursor is the whole scheduler: drivers that finish a split
// early simply take the next one, so work self-balances across drivers with
// no locks and no up-front assignment (morsel-style scheduling).
type splitQueue struct {
	splits []connector.Split
	next   atomic.Int64
}

// take claims the next unprocessed split (its index for error messages) or
// ok=false when the queue is drained.
func (q *splitQueue) take() (connector.Split, int, bool) {
	i := q.next.Add(1) - 1
	if i >= int64(len(q.splits)) {
		return nil, 0, false
	}
	return q.splits[i], int(i), true
}

type scanOperator struct {
	scan     *planner.TableScan
	provider connector.RecordSetProvider
	queue    *splitQueue
	columns  []int
	ctx      context.Context
	current  connector.PageSource
	// mem charges what a connector.ChargedSource holds, until its split
	// closes.
	mem *opMem
}

// scanSplits resolves the provider and split list for a table scan.
func scanSplits(t *planner.TableScan, ctx *Context) (connector.RecordSetProvider, []connector.Split, error) {
	conn, err := ctx.Catalogs.Get(t.Catalog)
	if err != nil {
		return nil, nil, err
	}
	var splits []connector.Split
	key := t.Catalog + "." + t.Schema + "." + t.Table
	if ctx.Splits != nil {
		splits = ctx.Splits[key]
	} else {
		splits, err = conn.SplitManager().Splits(t.Handle)
		if err != nil {
			return nil, nil, fmt.Errorf("execution: enumerating splits for %s: %w", key, err)
		}
	}
	return conn.RecordSetProvider(), splits, nil
}

func (o *scanOperator) Next() (*block.Page, error) {
	for {
		// Cancellation check per split and per page: long scans of a
		// cancelled query must stop instead of reading on to EOF.
		if err := o.ctx.Err(); err != nil {
			return nil, err
		}
		if o.current == nil {
			split, idx, ok := o.queue.take()
			if !ok {
				return nil, io.EOF
			}
			src, err := o.provider.CreatePageSource(o.scan.Handle, split, o.columns)
			if err != nil {
				return nil, fmt.Errorf("execution: opening split %d of %s.%s: %w", idx, o.scan.Schema, o.scan.Table, err)
			}
			if cs, ok := src.(connector.ChargedSource); ok {
				cs.ChargeTo(o.charge)
			}
			o.current = src
		}
		p, err := o.current.Next()
		if errors.Is(err, io.EOF) {
			closeErr := o.closeSplit()
			if closeErr != nil {
				return nil, fmt.Errorf("execution: closing split of %s.%s: %w", o.scan.Schema, o.scan.Table, closeErr)
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		return p, nil
	}
}

func (o *scanOperator) Close() error {
	if o.current != nil {
		return o.closeSplit()
	}
	return nil
}

// charge reserves what the current split's source holds beyond what it
// was charged: a connector cannot spill, so the reservation is hard.
func (o *scanOperator) charge(held int64) error {
	return o.mem.hardReserve(held - o.mem.reserved)
}

// closeSplit closes the current split's source and releases its charge.
func (o *scanOperator) closeSplit() error {
	err := o.current.Close()
	o.current = nil
	o.mem.releaseAll()
	return err
}

// ---------------------------------------------------------------------------

type filterOperator struct {
	child     Operator
	predicate expr.RowExpression
	// sel is the operator's leased selection vector (block pool): the hot
	// scan→filter→project path reuses it for every page instead of
	// allocating a fresh []int per page.
	sel *block.Positions
}

func (o *filterOperator) Next() (*block.Page, error) {
	if o.sel == nil {
		o.sel = block.GetPositions()
	}
	for {
		p, err := o.child.Next()
		if err != nil {
			return nil, err
		}
		positions, err := expr.EvalFilterInto(o.predicate, p, o.sel.Buf)
		if err != nil {
			return nil, err
		}
		o.sel.Buf = positions
		if len(positions) == 0 {
			continue
		}
		if len(positions) == p.Count() {
			return p, nil
		}
		// Mask copies the selected rows, so the vector is reusable next page.
		return p.Mask(positions), nil
	}
}

func (o *filterOperator) Close() error {
	block.PutPositions(o.sel)
	o.sel = nil
	return o.child.Close()
}

// ---------------------------------------------------------------------------

type projectOperator struct {
	child Operator
	exprs []expr.RowExpression
}

func (o *projectOperator) Next() (*block.Page, error) {
	p, err := o.child.Next()
	if err != nil {
		return nil, err
	}
	blocks := make([]block.Block, len(o.exprs))
	for i, e := range o.exprs {
		b, err := expr.Eval(e, p)
		if err != nil {
			return nil, err
		}
		blocks[i] = b
	}
	return &block.Page{Blocks: blocks, N: p.Count()}, nil
}

func (o *projectOperator) Close() error { return o.child.Close() }

// ---------------------------------------------------------------------------

type limitOperator struct {
	child     Operator
	remaining int64
}

func (o *limitOperator) Next() (*block.Page, error) {
	if o.remaining <= 0 {
		return nil, io.EOF
	}
	p, err := o.child.Next()
	if err != nil {
		return nil, err
	}
	if int64(p.Count()) > o.remaining {
		p = p.Region(0, int(o.remaining))
	}
	o.remaining -= int64(p.Count())
	return p, nil
}

func (o *limitOperator) Close() error { return o.child.Close() }
