// Package fixture is the druid store's read path as it stood before it ran on
// the vector kernels, cut down to its loops. The golden harness loads it under
// an import path containing internal/druid, which hotalloc covers: the boxed
// row per matching row and the formatted group key per row are reported; the
// shape that replaced them — the segment's own slices, wrapped once per
// segment — is not.
package fixture

import (
	"fmt"
	"strings"
)

type segment struct {
	n     int
	longs []int64
}

// selectRows is the old executeSelect: a fresh []any per matching row, every
// cell boxed into it.
func selectRows(seg *segment) [][]any {
	var rows [][]any
	for i := 0; i < seg.n; i++ {
		row := make([]any, 1)
		row[0] = seg.longs[i]
		rows = append(rows, row)
	}
	return rows
}

// groupRows is the old executeGroupBy: the group key rendered with fmt per
// row, and a boxed argument vector per row for the aggregate state.
func groupRows(seg *segment, add func(key string, args []any)) {
	for i := 0; i < seg.n; i++ {
		var kb strings.Builder
		fmt.Fprintf(&kb, "%T\x00%v\x01", seg.longs[i], seg.longs[i])
		add(kb.String(), []any{seg.longs[i]})
	}
}

// selectColumns is what replaced them: one wrapped slice per segment, nothing
// per row.
func selectColumns(segs []*segment) [][]int64 {
	pages := make([][]int64, 0, len(segs))
	for _, seg := range segs {
		pages = append(pages, seg.longs[:seg.n])
	}
	return pages
}
