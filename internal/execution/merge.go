package execution

import (
	"bytes"
	"errors"
	"io"

	"prestolite/internal/block"
	"prestolite/internal/execution/vector"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
)

// streamMergeOperator k-way merges streams already sorted by keys into one
// sorted stream: the per-driver sorts of a parallel ORDER BY, or the spilled
// runs (runSource) of an external sort or a hash aggregation. A cursor holds
// one page of its stream and that page's order keys (orderKeys, the bytes the
// sort ordered by), and rows compare by those bytes alone. Output pages are
// indirection pages over the cursor pages, which is safe because a stream
// never changes a page it has handed out.
type streamMergeOperator struct {
	keys    []planner.SortKey
	cursors []*streamCursor
	// wholeKeys ends a page only between two different keys, so a page may
	// pass spillPageRows by the rest of a run of equal keys — at most one row
	// per stream for the aggregation spill, whose runs hold each key once.
	wholeKeys bool
	opened    bool
	done      bool
}

// streamCursor tracks one sorted input stream, holding one page at a time
// (none once the stream is drained).
type streamCursor struct {
	src  Operator
	page *block.Page
	keys *vector.Keys // page's order keys
	row  int
	slot int32 // page's index among the sources of the page being built, or -1
}

func newStreamMergeOperator(keys []planner.SortKey, sources []Operator) *streamMergeOperator {
	cursors := make([]*streamCursor, len(sources))
	for i, s := range sources {
		cursors[i] = &streamCursor{src: s}
	}
	return &streamMergeOperator{keys: keys, cursors: cursors}
}

// mergeRuns merges spilled runs, each sorted by keys.
func mergeRuns(keys []planner.SortKey, runs []*resource.Run) *streamMergeOperator {
	sources := make([]Operator, len(runs))
	for i, r := range runs {
		sources[i] = &runSource{run: r}
	}
	return newStreamMergeOperator(keys, sources)
}

// advance loads the cursor's next non-empty page and its keys.
func (o *streamMergeOperator) advance(c *streamCursor) error {
	c.page, c.keys, c.row, c.slot = nil, nil, 0, -1
	for {
		p, err := c.src.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if p.Count() == 0 {
			continue
		}
		c.page, c.keys = p, orderKeys(p, o.keys)
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
	for _, c := range o.cursors {
		c.slot = -1
	}
	var pages []*block.Page
	var pageIdx, rowIdx []int32
	var last []byte // the key of the page's last row
	for {
		c := o.minCursor()
		if c == nil {
			break
		}
		key := c.keys.At(c.row)
		if len(pageIdx) >= spillPageRows && !(o.wholeKeys && bytes.Equal(key, last)) {
			break
		}
		if c.slot < 0 {
			c.slot = int32(len(pages))
			pages = append(pages, c.page)
		}
		pageIdx = append(pageIdx, c.slot)
		rowIdx = append(rowIdx, int32(c.row))
		last = key
		c.row++
		if c.row == c.page.Count() {
			if err := o.advance(c); err != nil {
				return nil, err
			}
		}
	}
	if len(pageIdx) == 0 {
		o.done = true
		return nil, io.EOF
	}
	return indirectPage(pages, pageIdx, rowIdx), nil
}

// minCursor picks the live cursor with the smallest current key; ties keep
// the lowest stream index, so merging is deterministic for a given page
// distribution and stable when earlier streams hold earlier rows.
func (o *streamMergeOperator) minCursor() *streamCursor {
	var best *streamCursor
	for _, c := range o.cursors {
		if c.page == nil {
			continue
		}
		if best == nil || bytes.Compare(c.keys.At(c.row), best.keys.At(best.row)) < 0 {
			best = c
		}
	}
	return best
}

func (o *streamMergeOperator) Close() error {
	var errs []error
	for _, c := range o.cursors {
		errs = append(errs, c.src.Close())
	}
	return errors.Join(errs...)
}
