package execution

import (
	"errors"
	"io"

	"prestolite/internal/block"
	"prestolite/internal/planner"
	"prestolite/internal/types"
)

// streamMergeOperator k-way merges already-sorted operator streams into one
// sorted stream: the per-driver sorts of a parallel ORDER BY, or the spilled
// runs of an external sort (runSource). Cursors advance by pulling the next
// page from their stream; NULLs compare greatest (compareNullable).
type streamMergeOperator struct {
	keys     []planner.SortKey
	outTypes []*types.Type
	cursors  []*streamCursor
	opened   bool
	done     bool
	scratch  []any
}

// streamCursor tracks one sorted input stream, holding one page at a time.
type streamCursor struct {
	src  Operator
	page *block.Page
	row  int
	done bool
}

func newStreamMergeOperator(keys []planner.SortKey, outTypes []*types.Type, sources []Operator) *streamMergeOperator {
	cursors := make([]*streamCursor, len(sources))
	for i, s := range sources {
		cursors[i] = &streamCursor{src: s}
	}
	return &streamMergeOperator{keys: keys, outTypes: outTypes, cursors: cursors}
}

// advance loads the cursor's next non-empty page.
func (o *streamMergeOperator) advance(c *streamCursor) error {
	c.page, c.row = nil, 0
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
		c.page = p
		return nil
	}
}

func (o *streamMergeOperator) Next() (*block.Page, error) {
	if o.done {
		return nil, io.EOF
	}
	if !o.opened {
		// Over per-driver sorts, first pages block until each sort finishes
		// consuming — they run concurrently in their exchange producers.
		for _, c := range o.cursors {
			if err := o.advance(c); err != nil {
				return nil, err
			}
		}
		o.opened = true
	}
	pb := block.NewPageBuilder(o.outTypes)
	if o.scratch == nil {
		o.scratch = make([]any, len(o.outTypes))
	}
	row := o.scratch
	for pb.Len() < spillPageRows {
		c := o.minCursor()
		if c == nil {
			break
		}
		for ch := range o.outTypes {
			row[ch] = c.page.Blocks[ch].Value(c.row)
		}
		pb.AppendRow(row)
		c.row++
		if c.row >= c.page.Count() {
			if err := o.advance(c); err != nil {
				return nil, err
			}
		}
	}
	if pb.Len() == 0 {
		o.done = true
		return nil, io.EOF
	}
	return pb.Build(), nil
}

// minCursor picks the live cursor with the smallest current row; ties keep
// the lowest stream index, so merging is deterministic for a given page
// distribution and stable when earlier streams hold earlier rows.
func (o *streamMergeOperator) minCursor() *streamCursor {
	var best *streamCursor
	for _, c := range o.cursors {
		if c.done || c.page == nil {
			continue
		}
		if best == nil || o.cursorLess(c, best) {
			best = c
		}
	}
	return best
}

func (o *streamMergeOperator) cursorLess(a, b *streamCursor) bool {
	for _, k := range o.keys {
		va := a.page.Blocks[k.Channel].Value(a.row)
		vb := b.page.Blocks[k.Channel].Value(b.row)
		c := compareNullable(va, vb)
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return false
}

func (o *streamMergeOperator) Close() error {
	var errs []error
	for _, c := range o.cursors {
		errs = append(errs, c.src.Close())
	}
	return errors.Join(errs...)
}
