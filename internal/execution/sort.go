package execution

import (
	"errors"
	"io"
	"sort"

	"prestolite/internal/block"
	"prestolite/internal/expr"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
	"prestolite/internal/types"
)

// sortOperator buffers its input and emits sorted output. NULLs sort last
// ascending / first descending. When everything fits the query's memory
// budget it emits one page of indirection blocks over the buffered input, so
// sorting never copies or re-encodes values; when a reservation is refused
// (and spill is enabled) it sorts what it holds, writes the sorted run to
// disk, and k-way merges the runs on read-back (the same streamMergeOperator
// that merges a parallel ORDER BY's per-driver sorts) — an external sort.
type sortOperator struct {
	child    Operator
	keys     []planner.SortKey
	outTypes []*types.Type
	mem      *opMem

	consumed bool
	done     bool
	pages    []*block.Page
	runs     []*resource.Run
	merge    *streamMergeOperator // over runs, once the input has spilled
}

func newSortOperator(node *planner.Sort, child Operator, mem *opMem) *sortOperator {
	outs := node.Outputs()
	ts := make([]*types.Type, len(outs))
	for i, c := range outs {
		ts[i] = c.Type
	}
	return &sortOperator{child: child, keys: node.Keys, outTypes: ts, mem: mem}
}

func (o *sortOperator) Next() (*block.Page, error) {
	if o.done {
		return nil, io.EOF
	}
	if !o.consumed {
		if err := o.consume(); err != nil {
			return nil, err
		}
		o.consumed = true
	}
	if o.merge != nil {
		return o.merge.Next()
	}
	o.done = true
	if len(o.pages) == 0 {
		return nil, io.EOF
	}
	return o.sortedView(), nil
}

func (o *sortOperator) consume() error {
	for {
		p, err := o.child.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if p.Count() == 0 {
			continue
		}
		sz := int64(p.SizeBytes())
		ok, err := o.mem.reserve(sz)
		if err != nil {
			return err
		}
		if !ok {
			if err := o.spillBuffer(); err != nil {
				return err
			}
			if err := o.mem.hardReserve(sz); err != nil {
				return err
			}
		}
		o.pages = append(o.pages, p)
	}
	if len(o.runs) == 0 {
		return nil
	}
	// Spilled at least once: the leftover buffer becomes the last run and
	// the merge takes over. Runs hold successively later input rows and the
	// merge breaks ties toward the lowest stream, so the external sort is as
	// stable as the in-memory one.
	if err := o.spillBuffer(); err != nil {
		return err
	}
	sources := make([]Operator, len(o.runs))
	for i, r := range o.runs {
		sources[i] = &runSource{run: r}
	}
	o.merge = newStreamMergeOperator(o.keys, o.outTypes, sources)
	return nil
}

// sortedView sorts the buffered pages and returns a zero-copy page of
// indirection blocks over them.
func (o *sortOperator) sortedView() *block.Page {
	pages := o.pages
	type idx struct {
		page int32
		row  int32
	}
	var rows []idx
	for pi, p := range pages {
		for r := 0; r < p.Count(); r++ {
			rows = append(rows, idx{page: int32(pi), row: int32(r)})
		}
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for _, k := range o.keys {
			va := pages[rows[a].page].Blocks[k.Channel].Value(int(rows[a].row))
			vb := pages[rows[b].page].Blocks[k.Channel].Value(int(rows[b].row))
			c := compareNullable(va, vb)
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	pageIdx := make([]int32, len(rows))
	rowIdx := make([]int32, len(rows))
	for i, r := range rows {
		pageIdx[i] = r.page
		rowIdx[i] = r.row
	}
	width := len(pages[0].Blocks)
	blocks := make([]block.Block, width)
	for ch := 0; ch < width; ch++ {
		sources := make([]block.Block, len(pages))
		for pi, p := range pages {
			sources[pi] = p.Blocks[ch]
		}
		blocks[ch] = &indirectBlock{sources: sources, pageIdx: pageIdx, rowIdx: rowIdx}
	}
	return &block.Page{Blocks: blocks, N: len(rows)}
}

// spillBuffer sorts the buffered pages and writes the sorted rows out as one
// run, then frees their memory.
func (o *sortOperator) spillBuffer() error {
	if len(o.pages) == 0 {
		return nil
	}
	view := o.sortedView()
	w, err := o.mem.newRun("sort")
	if err != nil {
		return err
	}
	for off := 0; off < view.Count(); off += spillPageRows {
		n := spillPageRows
		if off+n > view.Count() {
			n = view.Count() - off
		}
		if err := w.WritePage(view.Region(off, n)); err != nil {
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
	o.pages = o.pages[:0]
	o.mem.releaseAll()
	return nil
}

// compareNullable orders values with NULL greatest (NULLS LAST ascending).
func compareNullable(a, b any) int {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil:
		return 1
	case b == nil:
		return -1
	}
	return expr.CompareValues(a, b)
}

func (o *sortOperator) Close() error {
	var mergeErr error
	if o.merge != nil {
		mergeErr = o.merge.Close()
	}
	// Runs written before a failed consume have no merge to remove them.
	for _, r := range o.runs {
		r.Remove()
	}
	o.mem.releaseAll()
	return errors.Join(mergeErr, o.child.Close())
}

// indirectBlock is a zero-copy view over rows scattered across multiple
// source blocks.
type indirectBlock struct {
	sources []block.Block
	pageIdx []int32
	rowIdx  []int32
}

func (b *indirectBlock) Count() int { return len(b.pageIdx) }

func (b *indirectBlock) IsNull(i int) bool {
	return b.sources[b.pageIdx[i]].IsNull(int(b.rowIdx[i]))
}

func (b *indirectBlock) Value(i int) any {
	return b.sources[b.pageIdx[i]].Value(int(b.rowIdx[i]))
}

func (b *indirectBlock) Region(offset, length int) block.Block {
	return &indirectBlock{
		sources: b.sources,
		pageIdx: b.pageIdx[offset : offset+length],
		rowIdx:  b.rowIdx[offset : offset+length],
	}
}

func (b *indirectBlock) Mask(positions []int) block.Block {
	pi := make([]int32, len(positions))
	ri := make([]int32, len(positions))
	for out, p := range positions {
		pi[out] = b.pageIdx[p]
		ri[out] = b.rowIdx[p]
	}
	return &indirectBlock{sources: b.sources, pageIdx: pi, rowIdx: ri}
}

func (b *indirectBlock) SizeBytes() int { return 8 * len(b.pageIdx) }

// Materialize converts the view into concrete blocks (needed before pages
// cross a process boundary).
func (b *indirectBlock) Materialize() block.Block {
	// Mask each source to its positions in output order, then concatenate
	// runs. Positions alternate between sources, so build per-run masks.
	var parts []block.Block
	i := 0
	for i < len(b.pageIdx) {
		src := b.pageIdx[i]
		j := i
		var positions []int
		for j < len(b.pageIdx) && b.pageIdx[j] == src {
			positions = append(positions, int(b.rowIdx[j]))
			j++
		}
		parts = append(parts, b.sources[src].Mask(positions))
		i = j
	}
	return block.Concat(parts)
}
