package execution

import (
	"bytes"
	"errors"
	"io"
	"slices"

	"prestolite/internal/block"
	"prestolite/internal/execution/vector"
	"prestolite/internal/expr"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
	"prestolite/internal/types"
)

// Adaptive partial aggregation: a partial step that observes almost no
// reduction — nearly every input row opens a new group — stops hashing and
// streams the rest of its input through in intermediate layout, leaving the
// single hash pass to the final step. High-cardinality group-bys otherwise
// pay for two full hash passes around the repartition exchange, which is
// exactly the partial/final split's overhead when it cannot help.
const (
	// partialBypassMinRows is how much input the partial hashes before the
	// reduction ratio is trusted (Context.partialAggBypassRows overrides).
	// Small enough that a partial fed a few thin splits still gets to
	// decide, large enough that early duplicates keep a reducing partial
	// hashing.
	partialBypassMinRows = 512
	// partialBypassNum/partialBypassDen: bypass when
	// groups/rows >= Num/Den, i.e. the partial kept under 20% of its input.
	partialBypassNum = 8
	partialBypassDen = 10
)

// partialBypassRows resolves the bypass trigger threshold: the number of
// input rows to hash before checking the reduction ratio, or -1 when the
// bypass is disabled.
func partialBypassRows(ctx *Context) int {
	switch {
	case ctx.partialAggBypassRows < 0:
		return -1
	case ctx.partialAggBypassRows > 0:
		return ctx.partialAggBypassRows
	}
	return partialBypassMinRows
}

// vectorAggOperator is the hash aggregation, over the vector kernels, with
// three step modes (Fig 2): SINGLE consumes raw rows and emits finals;
// PARTIAL consumes raw rows and emits intermediates; FINAL consumes
// intermediates and emits finals. Its groups live in a vector.Partial —
// the one grouped aggregation the connectors' per-unit partials run on too
// — which hashes each page in batch, assigns group ids through the
// open-addressing GroupTable, groups a row, array or map key on its
// vector.AppendKey bytes and emits its first-seen value. Each aggregate's
// per-group state is updated a column at a time; one with no typed kernel
// runs on boxed expr states (boxedAgg). What the operator adds is its own:
//
//   - a DISTINCT aggregate owns a seen table keyed on (group id, argument),
//     and a row reaches the aggregate only when it opens an entry there;
//   - the adaptive bypass of a partial step that does not reduce;
//   - memory charging, and spill.
//
// Grouped aggregations account every page's new groups against the query
// memory context; when a reservation is refused (and spill is enabled) the
// whole table is flushed to a spill run — the page the in-memory result
// would emit, with intermediates, sorted by the keys' vector.RowKeys bytes —
// and rebuilt empty. Once input is exhausted the runs go through the ORDER
// BY merge (streamMergeOperator), which hands over each key's rows from
// every run on one page; the Partial, reset, folds each page's
// intermediates with AddIntermediate — the round trip the distributed
// partial→final path uses — and emits them, so the full set of groups
// (which by construction exceeded the budget) is never rebuilt in memory.
// Emission order after a spill is key order, not first-seen (grouped output
// order is unspecified). DISTINCT seen tables cannot spill (they cannot be
// merged without double counting), so an aggregation with one reserves hard
// and fails with Insufficient Resources over the limit.
type vectorAggOperator struct {
	node   *planner.Aggregate
	child  Operator
	fns    []*expr.AggregateFunction // for the fresh aggregates of passThrough
	aggs   []vector.Agg              // the groups' aggregates, owned by groups
	groups *vector.Partial
	mem    *opMem

	keyCols []block.Block   // the page's GROUP BY columns
	args    [][]block.Block // per aggregate: its argument columns
	// distinct[i] is aggregate i's seen table, keyed on (group id,
	// arguments...), or nil unless it is DISTINCT.
	distinct    []*vector.Partial
	hasDistinct bool
	seenCols    []block.Block
	gids        []int64
	sel         []int
	selIDs      []int32
	passIDs     []int32

	consumed bool
	emitFrom int

	// Adaptive partial aggregation state: rowsIn counts consumed input
	// rows; bypass flips when the reduction ratio check fails, after which
	// consume returns early and, once the hashed groups have drained,
	// passing streams the remaining input through untouched.
	bypassRows int
	rowsIn     int
	bypass     bool
	passing    bool

	charged int64
	runs    []*resource.Run
	merge   *streamMergeOperator // over runs, once the table has spilled
}

// newVectorAggOperator builds the hash aggregation for a plan node, with its
// own memory handle.
func newVectorAggOperator(ctx *Context, node *planner.Aggregate, child Operator) (Operator, error) {
	childCols := node.Child.Outputs()
	keyTypes := make([]*types.Type, len(node.GroupBy))
	for i, ch := range node.GroupBy {
		keyTypes[i] = childCols[ch].Type
	}
	// Nothing of a DISTINCT aggregation spills: its charges are hard.
	hasDistinct := slices.ContainsFunc(node.Aggs, func(a planner.Aggregation) bool { return a.Distinct })
	o := &vectorAggOperator{
		node:        node,
		child:       child,
		mem:         newOpMem("hash aggregation", ctx, !hasDistinct),
		hasDistinct: hasDistinct,
		keyCols:     make([]block.Block, len(node.GroupBy)),
		bypassRows:  partialBypassRows(ctx),
		args:        make([][]block.Block, len(node.Aggs)),
		distinct:    make([]*vector.Partial, len(node.Aggs)),
	}
	for i, a := range node.Aggs {
		fn, err := expr.ResolveAggregate(a.FuncName, a.ArgTypes)
		if err != nil {
			return nil, err
		}
		o.fns = append(o.fns, fn)
		o.aggs = append(o.aggs, newAgg(a, fn))
		o.args[i] = make([]block.Block, len(a.Args))
		if a.Distinct {
			o.distinct[i] = vector.NewPartial(append([]*types.Type{types.Bigint}, a.ArgTypes...), nil)
		}
	}
	o.groups = vector.NewPartial(keyTypes, o.aggs)
	return o, nil
}

func (o *vectorAggOperator) Next() (*block.Page, error) {
	if !o.consumed {
		if err := o.consume(); err != nil {
			return nil, err
		}
		o.consumed = true
		o.mem.pool.Leave()
	}
	if o.merge != nil {
		return o.mergeNext()
	}
	if o.passing {
		return o.passNext()
	}
	p, err := o.emitNext()
	if o.bypass && errors.Is(err, io.EOF) {
		// The groups hashed before the bypass tripped have all been
		// emitted (they are valid partials; the final step merges them with
		// the pass-through rows). Stream the rest of the input through.
		o.passing = true
		return o.passNext()
	}
	return p, err
}

func (o *vectorAggOperator) consume() error {
	for {
		p, err := o.child.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		n := p.Count()
		if n == 0 {
			continue
		}
		if err := o.addPage(p, n); err != nil {
			return err
		}
		// Adaptive partial aggregation: once enough input has been hashed,
		// a partial that is not reducing (almost one group per row) stops
		// consuming — Next drains the hashed groups, then streams the rest
		// of the input through in intermediate layout. Spilled operators
		// never bypass: their emission already belongs to the merge.
		if o.bypassRows >= 0 && o.node.Step == planner.AggPartial && len(o.runs) == 0 && len(o.node.GroupBy) > 0 {
			o.rowsIn += n
			if o.rowsIn >= o.bypassRows && o.groups.Len()*partialBypassDen >= o.rowsIn*partialBypassNum {
				o.bypass = true
				return nil
			}
		}
	}
	if len(o.runs) > 0 {
		// Spilled at least once: flush the remainder as the last sorted run
		// and hand emission over to the streaming merge.
		if err := o.spillGroups(); err != nil {
			return err
		}
		keys := make([]planner.SortKey, len(o.node.GroupBy))
		for i := range keys {
			keys[i].Channel = i
		}
		o.merge = mergeRuns(keys, o.runs)
		o.merge.wholeKeys = true
	}
	return nil
}

// addPage assigns the rows of p to groups, feeds every aggregate and
// charges what the page added.
func (o *vectorAggOperator) addPage(p *block.Page, n int) error {
	for i, ch := range o.node.GroupBy {
		o.keyCols[i] = p.Blocks[ch]
	}
	ids, err := o.groups.Assign(o.keyCols, n)
	if err != nil {
		return err
	}
	for i, a := range o.node.Aggs {
		agg := o.aggs[i]
		if o.node.Step == planner.AggFinal {
			// The input channel holds the intermediate value.
			if err := agg.AddIntermediate(ids, p.Blocks[a.Args[0]], n); err != nil {
				return err
			}
			continue
		}
		args := o.args[i]
		for j, ch := range a.Args {
			args[j] = p.Blocks[ch]
		}
		rowIDs, rows := ids, n
		if seen := o.distinct[i]; seen != nil {
			if rowIDs, err = o.distinctRows(seen, ids, args, n); err != nil {
				return err
			}
			rows = len(rowIDs)
		}
		if err := agg.AddRaw(rowIDs, args, rows); err != nil {
			return err
		}
	}
	return o.chargeGrowth()
}

// distinctRows narrows the rows of a DISTINCT aggregate — group ids ids,
// argument columns args, masked in place — to those that open an entry in
// its seen table and have a non-NULL first argument, and returns their
// group ids.
func (o *vectorAggOperator) distinctRows(seen *vector.Partial, ids []int32, args []block.Block, n int) ([]int32, error) {
	o.gids = o.gids[:0]
	for _, g := range ids {
		o.gids = append(o.gids, int64(g))
	}
	o.seenCols = append(append(o.seenCols[:0], &block.Int64Block{Values: o.gids}), args...)
	next := int32(seen.Len())
	entries, err := seen.Assign(o.seenCols, n)
	if err != nil {
		return nil, err
	}
	o.sel, o.selIDs = o.sel[:0], o.selIDs[:0]
	for r, e := range entries {
		if e != next {
			continue
		}
		next++
		if !args[0].IsNull(r) {
			o.sel = append(o.sel, r)
			o.selIDs = append(o.selIDs, ids[r])
		}
	}
	for j, b := range args {
		args[j] = b.Mask(o.sel)
	}
	return o.selIDs, nil
}

// chargeGrowth accounts what the groups and the DISTINCT entries grew by
// since the last charge. A global aggregate's one group is constant size
// (vector.Partial.Bytes). A refused reservation flushes the whole table to
// a sorted run, including the groups just assigned, so nothing is
// re-reserved afterwards. With a DISTINCT aggregate nothing may spill, so
// the charge is hard.
func (o *vectorAggOperator) chargeGrowth() error {
	held := o.groups.Bytes()
	for _, seen := range o.distinct {
		if seen != nil {
			held += int64(seen.Len())*aggDistinctCost + seen.KeyBytes()
		}
	}
	cost := held - o.charged
	o.charged = held
	if o.hasDistinct {
		return o.mem.hardReserve(cost)
	}
	ok, err := o.mem.reserve(cost)
	if err != nil {
		return err
	}
	if !ok {
		return o.spillGroups()
	}
	return nil
}

// spillGroups writes every group to one run, in key order, as pages of the
// group keys and each aggregate's intermediate, and resets the groups,
// freeing their memory.
func (o *vectorAggOperator) spillGroups() error {
	ng := o.groups.Len()
	if ng == 0 {
		return nil
	}
	p := o.groups.Emit(0, ng, false)
	keys := vector.RowKeys(p.Blocks[:len(o.node.GroupBy)], nil, ng)
	order := make([]int, ng)
	for g := range order {
		order[g] = g
	}
	slices.SortFunc(order, func(a, b int) int { return bytes.Compare(keys.At(a), keys.At(b)) })

	blocks := make([]block.Block, len(p.Blocks))
	run, err := o.mem.writeRun("agg", (ng+spillPageRows-1)/spillPageRows, func(i int) *block.Page {
		off, end := i*spillPageRows, min((i+1)*spillPageRows, ng)
		for c, b := range p.Blocks {
			blocks[c] = b.Mask(order[off:end])
		}
		return &block.Page{Blocks: blocks, N: end - off}
	})
	if err != nil {
		return err
	}
	o.runs = append(o.runs, run)
	o.groups.Reset()
	o.charged = 0
	o.mem.releaseAll()
	return nil
}

// emitNext streams the in-memory result a page at a time.
func (o *vectorAggOperator) emitNext() (*block.Page, error) {
	ng := o.groups.Len()
	if o.emitFrom >= ng {
		return nil, io.EOF
	}
	from := o.emitFrom
	o.emitFrom = min(from+spillPageRows, ng)
	return o.groups.Emit(from, o.emitFrom, o.node.Step != planner.AggPartial), nil
}

// mergeNext emits the groups of the next merged page of spilled rows: the
// page holds every run's row of each of its keys, which the reset groups
// fold into one.
func (o *vectorAggOperator) mergeNext() (*block.Page, error) {
	p, err := o.merge.Next()
	if err != nil {
		return nil, err
	}
	o.groups.Reset()
	if err := o.groups.AddIntermediate(block.MaterializePage(p)); err != nil {
		return nil, err
	}
	return o.groups.Emit(0, o.groups.Len(), o.node.Step != planner.AggPartial), nil
}

// passNext streams the post-bypass remainder of the input: each child page
// becomes one intermediate-layout page with no grouping at all.
func (o *vectorAggOperator) passNext() (*block.Page, error) {
	for {
		p, err := o.child.Next()
		if err != nil {
			return nil, err
		}
		if n := p.Count(); n > 0 {
			return o.passThrough(p, n)
		}
	}
}

// passThrough converts one raw page to the partial output layout by
// treating every row as its own group: key columns pass through unchanged
// and each aggregate's intermediate column is produced by a single AddRaw
// over identity group ids. Fresh aggregates per page keep the emitted
// blocks from aliasing state slices that the next page would overwrite —
// exchange sinks buffer emitted pages.
func (o *vectorAggOperator) passThrough(p *block.Page, n int) (*block.Page, error) {
	if cap(o.passIDs) < n {
		o.passIDs = make([]int32, n)
	}
	ids := o.passIDs[:n]
	for i := range ids {
		ids[i] = int32(i)
	}
	nk := len(o.node.GroupBy)
	blocks := make([]block.Block, nk+len(o.node.Aggs))
	for i, ch := range o.node.GroupBy {
		blocks[i] = p.Blocks[ch]
	}
	for i, a := range o.node.Aggs {
		agg := newAgg(a, o.fns[i])
		agg.Grow(n)
		args := o.args[i]
		for j, ch := range a.Args {
			args[j] = p.Blocks[ch]
		}
		if err := agg.AddRaw(ids, args, n); err != nil {
			return nil, err
		}
		blocks[nk+i] = agg.EmitIntermediate(0, n)
	}
	return &block.Page{Blocks: blocks, N: n}, nil
}

func (o *vectorAggOperator) Close() error {
	var errs []error
	if o.merge != nil {
		errs = append(errs, o.merge.Close())
	}
	for _, r := range o.runs {
		r.Remove()
	}
	o.runs = nil
	o.mem.releaseAll()
	errs = append(errs, o.child.Close())
	return errors.Join(errs...)
}
