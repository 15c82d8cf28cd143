package execution

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"prestolite/internal/block"
	"prestolite/internal/execution/vector"
	"prestolite/internal/expr"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
	"prestolite/internal/types"
)

// newAggOp picks the aggregation implementation for a plan node: the
// vectorized operator when the shape fits its kernels, otherwise the
// row-at-a-time reference operator. Both honor the same memory accounting,
// spill format and intermediate-value contracts, so the choice is invisible
// to the rest of the plan.
func newAggOp(ctx *Context, node *planner.Aggregate, child Operator) (Operator, error) {
	if vectorAggEligible(ctx, node) {
		return newVectorAggOperator(ctx, node, child, newOpMem("hash aggregation", ctx))
	}
	return newAggregateOperator(node, child, newOpMem("hash aggregation", ctx))
}

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

// vectorAggEligible gates the vectorized aggregation: scalar key types (none
// for a global aggregate, which is the one group 0 — its state is constant
// size, but the row operator boxed every input value to reach it) and every
// aggregate covered by a typed kernel. DISTINCT, multi-argument aggregates
// and approx_distinct stay on the reference path.
func vectorAggEligible(ctx *Context, node *planner.Aggregate) bool {
	if ctx.rowOperators {
		return false
	}
	childCols := node.Child.Outputs()
	for _, ch := range node.GroupBy {
		if !vector.Supported(childCols[ch].Type) {
			return false
		}
	}
	for _, a := range node.Aggs {
		if a.Distinct || len(a.Args) > 1 {
			return false
		}
		if _, ok := vector.NewAgg(a.FuncName, aggArgType(a)); !ok {
			return false
		}
	}
	return true
}

// aggArgType is the aggregate's raw argument type, nil for count(*).
func aggArgType(a planner.Aggregation) *types.Type {
	if len(a.ArgTypes) == 0 {
		return nil
	}
	return a.ArgTypes[0]
}

// vectorAggOperator is hash aggregation over the vector kernels: pages are
// hashed in batch, group ids assigned through the open-addressing
// GroupTable, and per-group state lives in flat typed slices updated a
// column at a time. It implements the same three step modes, memory
// accounting and spill protocol as aggregateOperator — including writing
// the identical key-sorted spill schema, so both operators share aggMerger
// for the post-spill streaming merge.
type vectorAggOperator struct {
	node  *planner.Aggregate
	child Operator
	fns   []*expr.AggregateFunction // row-engine states, used by the spill merge
	aggs  []vector.Agg
	table *vector.GroupTable
	mem   *opMem

	hasher   vector.Hasher
	hashes   []uint64
	ids      []int32
	keyViews []*vector.View
	keyKinds []vector.Kind
	argViews []*vector.View
	argKinds []vector.Kind

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

	chargedGroups   int
	chargedKeyBytes int64
	runs            []*resource.Run
	merger          *aggMerger
}

func newVectorAggOperator(ctx *Context, node *planner.Aggregate, child Operator, mem *opMem) (Operator, error) {
	childCols := node.Child.Outputs()
	keyTypes := make([]*types.Type, len(node.GroupBy))
	keyKinds := make([]vector.Kind, len(node.GroupBy))
	for i, ch := range node.GroupBy {
		keyTypes[i] = childCols[ch].Type
		keyKinds[i], _ = vector.KindOf(keyTypes[i])
	}
	table, ok := vector.NewGroupTable(keyTypes)
	if !ok {
		return nil, fmt.Errorf("execution: vector aggregation over unsupported key types")
	}
	o := &vectorAggOperator{
		node:       node,
		child:      child,
		mem:        mem,
		table:      table,
		bypassRows: partialBypassRows(ctx),
		keyKinds:   keyKinds,
		keyViews:   newViews(len(node.GroupBy)),
		argViews:   newViews(len(node.Aggs)),
		argKinds:   make([]vector.Kind, len(node.Aggs)),
	}
	for _, a := range node.Aggs {
		fn, err := expr.ResolveAggregate(a.FuncName, a.ArgTypes)
		if err != nil {
			return nil, err
		}
		o.fns = append(o.fns, fn)
		agg, ok := vector.NewAgg(a.FuncName, aggArgType(a))
		if !ok {
			return nil, fmt.Errorf("execution: vector aggregation has no kernel for %s", a.FuncName)
		}
		o.aggs = append(o.aggs, agg)
	}
	for i, a := range node.Aggs {
		if node.Step != planner.AggFinal && len(a.Args) == 1 {
			o.argKinds[i], _ = vector.KindOf(a.ArgTypes[0])
		}
	}
	return o, nil
}

func newViews(n int) []*vector.View {
	vs := make([]*vector.View, n)
	for i := range vs {
		vs[i] = &vector.View{}
	}
	return vs
}

func (o *vectorAggOperator) Next() (*block.Page, error) {
	if !o.consumed {
		if err := o.consume(); err != nil {
			return nil, err
		}
		o.consumed = true
	}
	if o.merger != nil {
		return o.merger.next()
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

// viewOf fills v from b, falling back to boxed materialization for exotic
// encodings the typed views reject.
func viewOf(b block.Block, k vector.Kind, n int, v *vector.View) error {
	if vector.Of(b, v) {
		return nil
	}
	if !vector.Materialize(b, k, n, v) {
		return fmt.Errorf("execution: block %T does not match its declared column type", b)
	}
	return nil
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
		if cap(o.hashes) < n {
			o.hashes = make([]uint64, n)
			o.ids = make([]int32, n)
		}
		hashes, ids := o.hashes[:n], o.ids[:n]
		o.hasher.HashPage(p, o.node.GroupBy, hashes)
		for i, ch := range o.node.GroupBy {
			if err := viewOf(p.Blocks[ch], o.keyKinds[i], n, o.keyViews[i]); err != nil {
				return err
			}
		}
		o.table.Assign(o.keyViews, n, hashes, ids)
		after := o.table.Len()
		for i, a := range o.node.Aggs {
			agg := o.aggs[i]
			agg.Grow(after)
			if o.node.Step == planner.AggFinal {
				// The input channel holds the intermediate value.
				if err := agg.AddIntermediate(ids, p.Blocks[a.Args[0]], n); err != nil {
					return err
				}
				continue
			}
			if len(a.Args) == 0 {
				agg.AddRaw(ids, nil, n)
				continue
			}
			if err := viewOf(p.Blocks[a.Args[0]], o.argKinds[i], n, o.argViews[i]); err != nil {
				return err
			}
			agg.AddRaw(ids, o.argViews[i], n)
		}
		if err := o.chargeGrowth(after); err != nil {
			return err
		}
		// Adaptive partial aggregation: once enough input has been hashed,
		// a partial that is not reducing (almost one group per row) stops
		// consuming — Next drains the hashed groups, then streams the rest
		// of the input through in intermediate layout. Spilled operators
		// never bypass: their emission already belongs to the run merger.
		if o.bypassRows >= 0 && o.node.Step == planner.AggPartial && len(o.runs) == 0 && len(o.node.GroupBy) > 0 {
			o.rowsIn += n
			if o.rowsIn >= o.bypassRows && o.table.Len()*partialBypassDen >= o.rowsIn*partialBypassNum {
				o.bypass = true
				return nil
			}
		}
	}
	if len(o.node.GroupBy) == 0 && o.table.Len() == 0 {
		// A global aggregate over empty input still produces its one group:
		// a keyless row opens it, and no aggregator sees a value.
		o.table.Assign(nil, 1, []uint64{0}, make([]int32, 1))
		for _, agg := range o.aggs {
			agg.Grow(1)
		}
	}
	if len(o.runs) > 0 {
		// Spilled at least once: flush the remainder as the last sorted run
		// and hand emission over to the streaming merge.
		if err := o.spillGroups(); err != nil {
			return err
		}
		o.merger = newAggMerger(o.node, o.fns)
		return o.merger.open(o.runs)
	}
	return nil
}

// chargeGrowth accounts the page's new groups (same per-group costs as the
// row operator, charged per batch instead of per row; like it, nothing for a
// global aggregate's one constant-size group). A refused reservation flushes
// the whole table to a sorted run — including the groups just assigned, so
// unlike the row path nothing is re-reserved afterwards.
func (o *vectorAggOperator) chargeGrowth(groups int) error {
	if len(o.node.GroupBy) == 0 {
		return nil
	}
	keyBytes := o.table.KeyBytes()
	cost := int64(groups-o.chargedGroups)*(aggGroupBaseCost+int64(len(o.aggs))*aggStateCost) +
		(keyBytes - o.chargedKeyBytes)
	o.chargedGroups, o.chargedKeyBytes = groups, keyBytes
	if cost <= 0 {
		return nil
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

// spillGroups writes every group to one key-sorted run (the aggMerger wire
// format) and resets the table and aggregator state, freeing their memory.
func (o *vectorAggOperator) spillGroups() error {
	ng := o.table.Len()
	if ng == 0 {
		return nil
	}
	nk := len(o.node.GroupBy)
	// Box and encode each group's key, then sort ids by encoded key so the
	// read-back merge can align equal groups across runs with plain cursors.
	enc := make([]string, ng)
	keyVals := make([]any, nk)
	var buf []byte
	for g := 0; g < ng; g++ {
		o.table.KeyValues(g, keyVals)
		buf = appendGroupKey(buf[:0], keyVals)
		enc[g] = string(buf)
	}
	order := make([]int, ng)
	for g := range order {
		order[g] = g
	}
	sort.Slice(order, func(i, j int) bool { return enc[order[i]] < enc[order[j]] })

	w, err := o.mem.newRun("agg")
	if err != nil {
		return err
	}
	ts := aggSpillTypes(o.node, o.fns)
	row := make([]any, len(ts))
	for off := 0; off < ng; off += spillPageRows {
		end := min(off+spillPageRows, ng)
		pb := block.NewPageBuilder(ts)
		for _, g := range order[off:end] {
			o.table.KeyValues(g, row[:nk])
			for i, agg := range o.aggs {
				row[nk+i] = agg.IntermediateValue(g)
			}
			pb.AppendRow(row)
		}
		if err := w.WritePage(pb.Build()); err != nil {
			w.Abandon()
			return o.mem.fail(err)
		}
	}
	run, err := w.Finish()
	if err != nil {
		return err
	}
	o.runs = append(o.runs, run)
	o.mem.addSpilled(run.Bytes())
	o.table.Reset()
	for _, agg := range o.aggs {
		agg.Reset()
	}
	o.chargedGroups, o.chargedKeyBytes = 0, 0
	o.mem.releaseAll()
	return nil
}

// emitNext streams the in-memory result a page at a time, building each
// column directly from the table's key stores and the aggregators' state
// slices — no per-row boxing on the way out.
func (o *vectorAggOperator) emitNext() (*block.Page, error) {
	ng := o.table.Len()
	if o.emitFrom >= ng {
		return nil, io.EOF
	}
	from := o.emitFrom
	to := min(from+spillPageRows, ng)
	o.emitFrom = to
	nk := len(o.node.GroupBy)
	blocks := make([]block.Block, nk+len(o.aggs))
	for c := 0; c < nk; c++ {
		blocks[c] = o.table.KeyBlock(c, from, to)
	}
	for i, agg := range o.aggs {
		if o.node.Step == planner.AggPartial {
			blocks[nk+i] = agg.EmitIntermediate(from, to)
		} else {
			blocks[nk+i] = agg.EmitFinal(from, to)
		}
	}
	return &block.Page{Blocks: blocks, N: to - from}, nil
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
// over identity group ids. Fresh aggregator instances per page keep the
// emitted blocks from aliasing state slices that the next page would
// overwrite — exchange sinks buffer emitted pages.
func (o *vectorAggOperator) passThrough(p *block.Page, n int) (*block.Page, error) {
	if cap(o.ids) < n {
		o.ids = make([]int32, n)
	}
	ids := o.ids[:n]
	for i := range ids {
		ids[i] = int32(i)
	}
	nk := len(o.node.GroupBy)
	blocks := make([]block.Block, nk+len(o.node.Aggs))
	for i, ch := range o.node.GroupBy {
		blocks[i] = p.Blocks[ch]
	}
	for i, a := range o.node.Aggs {
		agg, ok := vector.NewAgg(a.FuncName, aggArgType(a))
		if !ok {
			return nil, fmt.Errorf("execution: vector aggregation has no kernel for %s", a.FuncName)
		}
		agg.Grow(n)
		if len(a.Args) == 0 {
			agg.AddRaw(ids, nil, n)
		} else {
			if err := viewOf(p.Blocks[a.Args[0]], o.argKinds[i], n, o.argViews[i]); err != nil {
				return nil, err
			}
			agg.AddRaw(ids, o.argViews[i], n)
		}
		blocks[nk+i] = agg.EmitIntermediate(0, n)
	}
	return &block.Page{Blocks: blocks, N: n}, nil
}

func (o *vectorAggOperator) Close() error {
	var errs []error
	if o.merger != nil {
		errs = append(errs, o.merger.close())
	}
	for _, r := range o.runs {
		r.Remove()
	}
	o.runs = nil
	o.mem.releaseAll()
	errs = append(errs, o.child.Close())
	return errors.Join(errs...)
}
