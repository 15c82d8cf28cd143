package execution

import (
	"errors"
	"io"

	"prestolite/internal/block"
	"prestolite/internal/execution/vector"
	"prestolite/internal/expr"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
	"prestolite/internal/types"
)

// Estimated heap cost of hash-aggregation state: a fixed overhead per group
// plus one state per aggregate, and a per-entry cost for DISTINCT seen
// tables. Group costs are only charged for grouped aggregations — a global
// aggregate is a single constant-size state, so the paper's "count(*) works
// at any limit" expectation holds.
const (
	aggGroupBaseCost = 96
	aggStateCost     = 48
	aggDistinctCost  = 32
)

// aggregator is one aggregate's state by group id: a typed kernel
// (typedAgg), or boxedAgg for an aggregate with no typed kernel. Both take
// raw rows as argument blocks and emit the same intermediates, so spill and
// the partial/final split cannot tell them apart.
type aggregator interface {
	// Grow extends the state to cover group ids < n.
	Grow(n int)
	// addRaw accumulates n raw input rows; args are the argument columns.
	addRaw(ids []int32, args []block.Block, n int) error
	AddIntermediate(ids []int32, b block.Block, n int) error
	EmitIntermediate(from, to int) block.Block
	EmitFinal(from, to int) block.Block
	IntermediateValue(g int) any
	Reset()
}

// newAggregator builds aggregate a's state: its typed kernel when it has
// one, boxed states of fn otherwise.
func newAggregator(a planner.Aggregation, fn *expr.AggregateFunction) aggregator {
	if agg, ok := vector.NewAgg(a.FuncName, aggArgType(a)); ok {
		kind, _ := vector.KindOf(aggArgType(a))
		return &typedAgg{Agg: agg, kind: kind}
	}
	return &boxedAgg{fn: fn, a: a}
}

// aggArgType is the aggregate's raw argument type, nil for count(*).
func aggArgType(a planner.Aggregation) *types.Type {
	if len(a.ArgTypes) == 0 {
		return nil
	}
	return a.ArgTypes[0]
}

// typedAgg feeds a typed kernel its argument as a view.
type typedAgg struct {
	vector.Agg
	kind vector.Kind
	view vector.View
}

func (a *typedAgg) addRaw(ids []int32, args []block.Block, n int) error {
	if len(args) == 0 {
		a.AddRaw(ids, nil, n)
		return nil
	}
	if err := viewOf(args[0], a.kind, n, &a.view); err != nil {
		return err
	}
	a.AddRaw(ids, &a.view, n)
	return nil
}

// boxedAgg runs an aggregate with no typed kernel — approx_distinct, a
// plugin such as build_geo_index, count of a nested column — on one
// expr.AggState per group id, fed boxed values of every argument. It emits
// at the plan's intermediate and final types, as a typed kernel does.
type boxedAgg struct {
	fn     *expr.AggregateFunction
	a      planner.Aggregation
	states []expr.AggState
	vals   []any
}

func (b *boxedAgg) Grow(n int) {
	for len(b.states) < n {
		b.states = append(b.states, b.fn.NewState(b.a.ArgTypes))
	}
}

func (b *boxedAgg) addRaw(ids []int32, args []block.Block, n int) error {
	if len(b.vals) != len(args) {
		b.vals = make([]any, len(args))
	}
	for r := 0; r < n; r++ {
		for i, arg := range args {
			b.vals[i] = arg.Value(r)
		}
		b.states[ids[r]].Add(b.vals)
	}
	return nil
}

func (b *boxedAgg) AddIntermediate(ids []int32, blk block.Block, n int) error {
	for r := 0; r < n; r++ {
		b.states[ids[r]].AddIntermediate(blk.Value(r))
	}
	return nil
}

func (b *boxedAgg) EmitIntermediate(from, to int) block.Block {
	return b.emit(b.a.InterType, from, to, expr.AggState.Intermediate)
}

func (b *boxedAgg) EmitFinal(from, to int) block.Block {
	return b.emit(b.a.FinalType, from, to, expr.AggState.Final)
}

func (b *boxedAgg) emit(t *types.Type, from, to int, value func(expr.AggState) any) block.Block {
	out := block.NewBuilder(t, to-from)
	for _, st := range b.states[from:to] {
		out.Append(value(st))
	}
	return out.Build()
}

func (b *boxedAgg) IntermediateValue(g int) any { return b.states[g].Intermediate() }

func (b *boxedAgg) Reset() {
	clear(b.states)
	b.states = b.states[:0]
}

// aggSpillTypes is the schema of a spilled aggregation page: the group-by
// key columns followed by one intermediate-state column per aggregate.
func aggSpillTypes(node *planner.Aggregate, fns []*expr.AggregateFunction) []*types.Type {
	childCols := node.Child.Outputs()
	ts := make([]*types.Type, 0, len(node.GroupBy)+len(fns))
	for _, ch := range node.GroupBy {
		ts = append(ts, childCols[ch].Type)
	}
	for i, fn := range fns {
		ts = append(ts, fn.IntermediateType(node.Aggs[i].ArgTypes))
	}
	return ts
}

// aggMergeCursor reads one sorted spill run during the merge, holding one
// page at a time. Like the sort merge, read-back pages are transient engine
// overhead (one bounded frame per open run), not user memory.
type aggMergeCursor struct {
	src  *runSource
	page *block.Page
	row  int
	key  string // current row's encoded group key
	done bool
}

// aggMerger k-way merges the hash aggregation's key-sorted spill runs
// (pages of [group keys..., intermediate states...], sorted by the keys'
// vector.AppendKey bytes), combining equal keys across runs with
// AddIntermediate on boxed expr states and streaming result pages out.
type aggMerger struct {
	node     *planner.Aggregate
	fns      []*expr.AggregateFunction
	cursors  []*aggMergeCursor
	mergeBuf []byte
}

// open starts a cursor per sorted run and positions each on its first row.
// The merge holds only the cursor pages plus one group's states at a time,
// so it fits any budget — unlike rebuilding the full distinct-group table,
// which by construction cannot fit (that is why it spilled).
func (o *aggMerger) open(runs []*resource.Run) error {
	for _, r := range runs {
		c := &aggMergeCursor{src: &runSource{run: r}}
		o.cursors = append(o.cursors, c)
		if err := o.advanceCursor(c); err != nil {
			return err
		}
	}
	return nil
}

// close releases any cursors still holding open run readers.
func (o *aggMerger) close() error {
	var errs []error
	for _, c := range o.cursors {
		errs = append(errs, c.src.Close())
	}
	return errors.Join(errs...)
}

// advanceCursor moves a cursor to its next row, loading pages as needed (the
// run source removes its file as soon as it is read to the end).
func (o *aggMerger) advanceCursor(c *aggMergeCursor) error {
	if c.page != nil {
		c.row++
		if c.row < c.page.Count() {
			o.cursorKey(c)
			return nil
		}
		c.page = nil
	}
	for {
		p, err := c.src.Next()
		if errors.Is(err, io.EOF) {
			c.done = true
			return nil
		}
		if err != nil {
			return err
		}
		if p.Count() == 0 {
			continue
		}
		c.page, c.row = p, 0
		o.cursorKey(c)
		return nil
	}
}

// cursorKey recomputes the cursor's encoded group key for its current row.
func (o *aggMerger) cursorKey(c *aggMergeCursor) {
	o.mergeBuf = o.mergeBuf[:0]
	for i := range o.node.GroupBy {
		o.mergeBuf = vector.AppendKey(o.mergeBuf, c.page.Blocks[i].Value(c.row))
	}
	c.key = string(o.mergeBuf)
}

// next emits the next page of the k-way merge: the smallest key across
// the live cursors is combined (AddIntermediate over every run holding it)
// into one transient group and appended, until the page fills or the runs
// drain.
func (o *aggMerger) next() (*block.Page, error) {
	outs := o.node.Outputs()
	colTypes := make([]*types.Type, len(outs))
	for i, col := range outs {
		colTypes[i] = col.Type
	}
	nk := len(o.node.GroupBy)
	pb := block.NewPageBuilder(colTypes)
	row := make([]any, 0, len(outs))
	keys := make([]any, nk) // scratch: AppendRow copies per value
	for pb.Len() < spillPageRows {
		var best string
		found := false
		for _, c := range o.cursors {
			if !c.done && (!found || c.key < best) {
				best, found = c.key, true
			}
		}
		if !found {
			break
		}
		states := make([]expr.AggState, len(o.fns))
		for i, fn := range o.fns {
			states[i] = fn.NewState(o.node.Aggs[i].ArgTypes)
		}
		haveKeys := false
		for _, c := range o.cursors {
			for !c.done && c.key == best {
				if !haveKeys {
					haveKeys = true
					for i := 0; i < nk; i++ {
						keys[i] = c.page.Blocks[i].Value(c.row)
					}
				}
				for i := range o.fns {
					states[i].AddIntermediate(c.page.Blocks[nk+i].Value(c.row))
				}
				if err := o.advanceCursor(c); err != nil {
					return nil, err
				}
			}
		}
		row = row[:0]
		row = append(row, keys...)
		for _, st := range states {
			if o.node.Step == planner.AggPartial {
				row = append(row, st.Intermediate())
			} else {
				row = append(row, st.Final())
			}
		}
		pb.AppendRow(row)
	}
	if pb.Len() == 0 {
		return nil, io.EOF
	}
	return pb.Build(), nil
}
