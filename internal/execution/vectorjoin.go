package execution

import (
	"errors"
	"io"

	"prestolite/internal/block"
	"prestolite/internal/execution/vector"
	"prestolite/internal/planner"
	"prestolite/internal/types"
)

// newJoinOp picks the join implementation for a plan node: the vectorized
// operator for residual-free INNER/LEFT equi-joins over scalar columns,
// otherwise the row-at-a-time reference operator (cross joins, residual
// predicates, nested build-side types).
func newJoinOp(ctx *Context, node *planner.Join, left, right Operator) Operator {
	if vectorJoinEligible(ctx, node) {
		return newVectorJoinOperator(node, left, right, newOpMem("the build side of a join", ctx))
	}
	return newJoinOperator(node, left, right, newOpMem("the build side of a join", ctx))
}

func vectorJoinEligible(ctx *Context, node *planner.Join) bool {
	if ctx.rowOperators || len(node.LeftKeys) == 0 || node.Residual != nil {
		return false
	}
	if node.Kind != planner.JoinInner && node.Kind != planner.JoinLeft {
		return false
	}
	// Every build-side column lands in a typed store; probe-side keys need
	// typed views. Probe non-key columns pass through untouched.
	for _, c := range node.Right.Outputs() {
		if !vector.Supported(c.Type) {
			return false
		}
	}
	leftCols := node.Left.Outputs()
	for _, ch := range node.LeftKeys {
		if !vector.Supported(leftCols[ch].Type) {
			return false
		}
	}
	return true
}

// vectorJoinOperator is a hash equi-join over the vector kernels: the build
// side is compacted into flat typed column stores indexed by a chained
// open-addressing JoinTable, and probe pages are hashed and matched in
// batch — matches come out as (probe selection vector, build row gather),
// so output columns are built with two typed copies instead of per-row
// boxing.
//
// Memory pressure degrades to the reference operator: the compacted store
// is synthesized back into pages and replayed into a row joinOperator,
// whose multi-pass spill machinery takes over.
type vectorJoinOperator struct {
	node  *planner.Join
	left  Operator
	right Operator
	mem   *opMem

	leftTypes  []*types.Type
	rightTypes []*types.Type
	keyKinds   []vector.Kind

	cols    []*vector.Column
	jt      *vector.JoinTable
	rows    int
	charged int64
	built   bool

	hasher   vector.Hasher
	hashes   []uint64
	rowViews []*vector.View
	keyViews []*vector.View
	probeSel []int
	extraSel []int
	matched  []bool

	pending  []*block.Page
	fallback Operator
}

func newVectorJoinOperator(node *planner.Join, left, right Operator, mem *opMem) Operator {
	lo, ro := node.Left.Outputs(), node.Right.Outputs()
	lt := make([]*types.Type, len(lo))
	for i, c := range lo {
		lt[i] = c.Type
	}
	rt := make([]*types.Type, len(ro))
	cols := make([]*vector.Column, len(ro))
	for i, c := range ro {
		rt[i] = c.Type
		cols[i], _ = vector.NewColumn(c.Type)
	}
	keyCols := make([]*vector.Column, len(node.RightKeys))
	for i, ch := range node.RightKeys {
		keyCols[i] = cols[ch]
	}
	keyKinds := make([]vector.Kind, len(node.LeftKeys))
	for i, ch := range node.LeftKeys {
		keyKinds[i], _ = vector.KindOf(lt[ch])
	}
	return &vectorJoinOperator{
		node:       node,
		left:       left,
		right:      right,
		mem:        mem,
		leftTypes:  lt,
		rightTypes: rt,
		keyKinds:   keyKinds,
		cols:       cols,
		jt:         vector.NewJoinTable(keyCols),
		rowViews:   newViews(len(ro)),
		keyViews:   newViews(len(node.LeftKeys)),
	}
}

// build consumes the build side into the column stores and join table,
// charging retained bytes as it grows. The first refused reservation hands
// the operator over to the row reference implementation (degrade), whose
// spill machinery is built for exactly that regime.
func (o *vectorJoinOperator) build() error {
	rightKinds := make([]vector.Kind, len(o.rightTypes))
	for i, t := range o.rightTypes {
		rightKinds[i], _ = vector.KindOf(t)
	}
	insViews := make([]*vector.View, len(o.node.RightKeys))
	for {
		p, err := o.right.Next()
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
		}
		hashes := o.hashes[:n]
		o.hasher.HashPage(p, o.node.RightKeys, hashes)
		for c := range o.cols {
			if err := viewOf(p.Blocks[c], rightKinds[c], n, o.rowViews[c]); err != nil {
				return err
			}
		}
		base := o.rows
		for c, col := range o.cols {
			col.Append(o.rowViews[c], n)
		}
		for i, ch := range o.node.RightKeys {
			insViews[i] = o.rowViews[ch]
		}
		o.jt.Insert(insViews, n, hashes, base)
		o.rows += n

		var held int64
		for _, col := range o.cols {
			held += col.Bytes()
		}
		held += o.jt.Bytes()
		delta := held - o.charged
		o.charged = held
		if delta <= 0 {
			continue
		}
		ok, err := o.mem.reserve(delta)
		if err != nil {
			return err
		}
		if !ok {
			return o.degrade()
		}
	}
	return nil
}

// degrade synthesizes the compacted build side back into pages, releases
// the vector state, and replays everything (plus the unread remainder of
// the build stream) into a row joinOperator — which immediately faces the
// same memory pressure and takes its multi-pass spill path.
func (o *vectorJoinOperator) degrade() error {
	var pages []*block.Page
	for from := 0; from < o.rows; from += spillPageRows {
		to := min(from+spillPageRows, o.rows)
		blocks := make([]block.Block, len(o.cols))
		for c, col := range o.cols {
			blocks[c] = col.Block(from, to)
		}
		pages = append(pages, &block.Page{Blocks: blocks, N: to - from})
	}
	o.cols, o.jt = nil, nil
	o.charged = 0
	o.mem.releaseAll()
	replay := &pageReplayOperator{pages: pages, rest: o.right}
	o.fallback = newJoinOperator(o.node, o.left, replay, o.mem)
	return nil
}

func (o *vectorJoinOperator) Next() (*block.Page, error) {
	if !o.built {
		if err := o.build(); err != nil {
			return nil, err
		}
		o.built = true
	}
	if o.fallback != nil {
		return o.fallback.Next()
	}
	for {
		if len(o.pending) > 0 {
			p := o.pending[0]
			o.pending = o.pending[1:]
			return p, nil
		}
		p, err := o.left.Next()
		if err != nil {
			return nil, err
		}
		if err := o.probePage(p); err != nil {
			return nil, err
		}
	}
}

// probePage matches one probe page, queueing the matched page and (for LEFT
// joins) the null-extended unmatched page.
func (o *vectorJoinOperator) probePage(p *block.Page) error {
	n := p.Count()
	if n == 0 {
		return nil
	}
	if cap(o.hashes) < n {
		o.hashes = make([]uint64, n)
	}
	hashes := o.hashes[:n]
	o.hasher.HashPage(p, o.node.LeftKeys, hashes)
	for i, ch := range o.node.LeftKeys {
		if err := viewOf(p.Blocks[ch], o.keyKinds[i], n, o.keyViews[i]); err != nil {
			return err
		}
	}
	isLeft := o.node.Kind == planner.JoinLeft
	var matched []bool
	if isLeft {
		if cap(o.matched) < n {
			o.matched = make([]bool, n)
		}
		matched = o.matched[:n]
		for r := range matched {
			matched[r] = false
		}
	}
	probeSel, buildRows := o.jt.Probe(o.keyViews, n, hashes, o.probeSel[:0], nil, matched)
	o.probeSel = probeSel[:0] // retain capacity for the next page
	if len(probeSel) > 0 {
		blocks := make([]block.Block, len(o.leftTypes)+len(o.rightTypes))
		for c := range o.leftTypes {
			blocks[c] = p.Blocks[c].Mask(probeSel)
		}
		for c, col := range o.cols {
			blocks[len(o.leftTypes)+c] = col.Gather(buildRows)
		}
		o.pending = append(o.pending, &block.Page{Blocks: blocks, N: len(probeSel)})
	}
	if isLeft {
		unmatched := o.extraSel[:0]
		for r := 0; r < n; r++ {
			if !matched[r] {
				unmatched = append(unmatched, r)
			}
		}
		o.extraSel = unmatched[:0]
		if len(unmatched) > 0 {
			blocks := make([]block.Block, len(o.leftTypes)+len(o.rightTypes))
			for c := range o.leftTypes {
				blocks[c] = p.Blocks[c].Mask(unmatched)
			}
			for c, t := range o.rightTypes {
				blocks[len(o.leftTypes)+c] = vector.NullBlock(t, len(unmatched))
			}
			o.pending = append(o.pending, &block.Page{Blocks: blocks, N: len(unmatched)})
		}
	}
	return nil
}

func (o *vectorJoinOperator) Close() error {
	if o.fallback != nil {
		// The fallback owns left and (via the replay wrapper) right.
		return o.fallback.Close()
	}
	o.mem.releaseAll()
	return errors.Join(o.left.Close(), o.right.Close())
}

// pageReplayOperator serves buffered pages, then streams from rest — the
// degrade path's bridge from the compacted store back to a page stream.
type pageReplayOperator struct {
	pages []*block.Page
	idx   int
	rest  Operator
}

func (o *pageReplayOperator) Next() (*block.Page, error) {
	if o.idx < len(o.pages) {
		p := o.pages[o.idx]
		o.pages[o.idx] = nil
		o.idx++
		return p, nil
	}
	return o.rest.Next()
}

func (o *pageReplayOperator) Close() error { return o.rest.Close() }
