package execution

import (
	"bytes"
	"errors"
	"io"
	"slices"

	"prestolite/internal/block"
	"prestolite/internal/execution/vector"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
)

// sortOperator buffers its input and emits it in order. A row's order is its
// key bytes (orderKeys), computed once as its page arrives and held, with the
// page, under the operator's reservation; sorting compares them bytewise, so
// it boxes nothing per comparison. NULLs sort last ascending and first
// descending, a NaN below every number. When everything fits the query's
// memory budget it emits one page of indirection blocks over the buffered
// input, so sorting never copies or re-encodes values; when a reservation is
// refused (and spill is enabled) it sorts what it holds, the refused page
// included, writes the sorted run to disk, and k-way merges the runs on
// read-back (the same streamMergeOperator that merges a parallel ORDER BY's
// per-driver sorts) — an external sort.
type sortOperator struct {
	child Operator
	keys  []planner.SortKey
	mem   *opMem

	consumed bool
	done     bool
	pages    []*block.Page
	pageKeys []*vector.Keys // per buffered page: its rows' order keys
	rows     []sortRow
	runs     []*resource.Run
	merge    *streamMergeOperator // over runs, once the input has spilled
}

// sortRow is where one buffered row lives.
type sortRow struct{ page, row int32 }

// sortRowBytes is a sortRow's size.
const sortRowBytes = 8

func newSortOperator(node *planner.Sort, child Operator, mem *opMem) *sortOperator {
	return &sortOperator{child: child, keys: node.Keys, mem: mem}
}

// orderKeys is the order key of every row of p: the vector.RowKeys bytes of
// its sort columns, a DESC column's complemented.
func orderKeys(p *block.Page, keys []planner.SortKey) *vector.Keys {
	cols := make([]block.Block, len(keys))
	desc := make([]bool, len(keys))
	for i, k := range keys {
		cols[i], desc[i] = p.Blocks[k.Channel], k.Desc
	}
	return vector.RowKeys(cols, desc, p.Count())
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
		o.mem.pool.Leave()
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
		keys := orderKeys(p, o.keys)
		sz := int64(p.SizeBytes()) + keys.Bytes() + int64(p.Count())*sortRowBytes
		ok, err := o.mem.reserve(sz)
		if err != nil {
			return err
		}
		page := int32(len(o.pages))
		o.pages, o.pageKeys = append(o.pages, p), append(o.pageKeys, keys)
		for r := 0; r < p.Count(); r++ {
			o.rows = append(o.rows, sortRow{page: page, row: int32(r)})
		}
		if !ok {
			// Refused: the buffer goes to disk with this page in it, so a
			// page larger than the whole budget spills as a run of its own.
			if err := o.spillBuffer(); err != nil {
				return err
			}
		}
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
	o.merge = mergeRuns(o.keys, o.runs)
	return nil
}

// sortedView stably sorts the buffered rows by key and returns a zero-copy
// page of indirection blocks over them.
func (o *sortOperator) sortedView() *block.Page {
	slices.SortStableFunc(o.rows, func(a, b sortRow) int {
		return bytes.Compare(o.pageKeys[a.page].At(int(a.row)), o.pageKeys[b.page].At(int(b.row)))
	})
	pageIdx := make([]int32, len(o.rows))
	rowIdx := make([]int32, len(o.rows))
	for i, r := range o.rows {
		pageIdx[i], rowIdx[i] = r.page, r.row
	}
	return indirectPage(o.pages, pageIdx, rowIdx)
}

// indirectPage is a zero-copy page whose row i is row rowIdx[i] of
// pages[pageIdx[i]].
func indirectPage(pages []*block.Page, pageIdx, rowIdx []int32) *block.Page {
	blocks := make([]block.Block, len(pages[0].Blocks))
	for ch := range blocks {
		sources := make([]block.Block, len(pages))
		for pi, p := range pages {
			sources[pi] = p.Blocks[ch]
		}
		blocks[ch] = &indirectBlock{sources: sources, pageIdx: pageIdx, rowIdx: rowIdx}
	}
	return &block.Page{Blocks: blocks, N: len(pageIdx)}
}

// spillBuffer sorts the buffered pages and writes the sorted rows out as one
// run, then frees their memory.
func (o *sortOperator) spillBuffer() error {
	if len(o.pages) == 0 {
		return nil
	}
	view := o.sortedView()
	rows := view.Count()
	run, err := o.mem.writeRun("sort", (rows+spillPageRows-1)/spillPageRows, func(i int) *block.Page {
		return view.Region(i*spillPageRows, min(spillPageRows, rows-i*spillPageRows))
	})
	if err != nil {
		return err
	}
	o.runs = append(o.runs, run)
	o.pages, o.pageKeys, o.rows = nil, nil, nil
	o.mem.releaseAll()
	return nil
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
