package parquet

import (
	"errors"
	"io"
	"math"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/expr"
	"prestolite/internal/fsys"
	"prestolite/internal/types"
)

// What the footer statistics prove about a row group, per predicate (§V.F):
// it excludes the row group, covers it, or leaves the predicate to be
// evaluated.

// statsFile writes rows of the given columns in row groups of rowGroupRows,
// not dictionary-encoded, and returns the file with its parsed footer.
func statsFile(t *testing.T, names []string, typs []*types.Type, rows [][]any, rowGroupRows int) (*fsys.BytesFile, *FileMeta, *Schema) {
	t.Helper()
	s, err := NewSchema(names, typs)
	if err != nil {
		t.Fatal(err)
	}
	f := writeFile(t, s, rows, WriterOptions{RowGroupRows: rowGroupRows, DisableDictionary: true}, true)
	meta, schema, err := ReadFooter(f)
	if err != nil {
		t.Fatal(err)
	}
	return f, meta, schema
}

// forceAll reads every page and materializes every block of it, lazy ones
// included, returning the number of rows.
func forceAll(t testing.TB, r *Reader) int {
	t.Helper()
	n := 0
	for {
		p, err := r.Next()
		if errors.Is(err, io.EOF) {
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range p.Blocks {
			block.Unwrap(b)
		}
		n += p.Count()
	}
}

// A predicate that every row of a row group passes is not evaluated there:
// its leaf is neither fetched nor decoded unless an output needs it, and the
// output that reads it is lazy like any other.
func TestCoveredPredicateIsNotEvaluated(t *testing.T) {
	f, meta, schema := fiveColumns(t, 8, 4) // a = 0..3 | 4..7
	for _, tc := range []struct {
		name                     string
		columns                  []string
		pred                     expr.Comparison
		rows                     int
		covered, decoded, ranges int64
		skipped                  int64
	}{
		// Both row groups covered: only c and e are read.
		{"all covered", []string{"c", "e"}, expr.Comparison{Column: "a", Op: expr.OpGte, Values: []any{int64(0)}}, 8, 2, 4, 4, 0},
		{"neq covered", []string{"c"}, expr.Comparison{Column: "a", Op: expr.OpNeq, Values: []any{int64(9)}}, 8, 2, 2, 2, 0},
		// Row group 0 evaluates a (rows 2, 3 pass), row group 1 is covered.
		{"one covered", []string{"c"}, expr.Comparison{Column: "a", Op: expr.OpGte, Values: []any{int64(2)}}, 6, 1, 3, 3, 0},
		// Row group 0 is pruned, row group 1 covered.
		{"pruned and covered", []string{"c"}, expr.Comparison{Column: "a", Op: expr.OpGte, Values: []any{int64(4)}}, 4, 1, 1, 1, 1},
		// The covered leaf is an output: read once, for the output.
		{"covered output", []string{"a"}, expr.Comparison{Column: "a", Op: expr.OpLt, Values: []any{int64(100)}}, 8, 2, 2, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReaderWithFooter(f, meta, schema, AllOptimizations(tc.columns, []expr.Comparison{tc.pred}))
			if err != nil {
				t.Fatal(err)
			}
			p, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if tc.covered == 2 {
				if _, lazy := p.Blocks[0].(*block.LazyBlock); !lazy {
					t.Errorf("an output over a covered predicate's leaf is %T, want lazy", p.Blocks[0])
				}
			}
			rows := p.Count()
			for _, b := range p.Blocks {
				block.Unwrap(b)
			}
			rows += forceAll(t, r)
			m := r.Metrics
			if rows != tc.rows || m.PredicatesCovered.Load() != tc.covered || m.LeavesDecoded.Load() != tc.decoded ||
				m.RangesRead.Load() != tc.ranges || m.RowGroupsSkippedStats.Load() != tc.skipped {
				t.Errorf("rows %d covered %d decoded %d ranges %d skipped %d; want %d %d %d %d %d", rows,
					m.PredicatesCovered.Load(), m.LeavesDecoded.Load(), m.RangesRead.Load(), m.RowGroupsSkippedStats.Load(),
					tc.rows, tc.covered, tc.decoded, tc.ranges, tc.skipped)
			}
		})
	}
}

// Statistics that cannot prove every row passes leave the predicate to the
// row: a NULL in the chunk (NULL passes nothing), and any double chunk, whose
// statistics leave NaN out.
func TestPredicateIsNotCoveredByWhatStatsCannotProve(t *testing.T) {
	rows := [][]any{{int64(1), 1.0}, {nil, 2.0}, {int64(3), math.NaN()}, {int64(4), 4.0}}
	f, meta, schema := statsFile(t, []string{"x", "d"}, []*types.Type{types.Bigint, types.Double}, rows, 4)
	for _, tc := range []struct {
		pred expr.Comparison
		rows int
	}{
		{expr.Comparison{Column: "x", Op: expr.OpGte, Values: []any{int64(0)}}, 3},
		{expr.Comparison{Column: "d", Op: expr.OpLt, Values: []any{10.0}}, 3},
		{expr.Comparison{Column: "d", Op: expr.OpNeq, Values: []any{9.0}}, 4},
	} {
		r, err := NewReaderWithFooter(f, meta, schema, AllOptimizations([]string{"x"}, []expr.Comparison{tc.pred}))
		if err != nil {
			t.Fatal(err)
		}
		if got := forceAll(t, r); got != tc.rows || r.Metrics.PredicatesCovered.Load() != 0 {
			t.Errorf("%s: rows %d, covered %d; want %d rows and nothing covered", tc.pred, got, r.Metrics.PredicatesCovered.Load(), tc.rows)
		}
	}
}

// A row group whose predicate chunk holds only NULLs can match no row: the
// statistics prune it, and none of its leaves is decoded.
func TestAllNullPredicateChunkPrunesRowGroup(t *testing.T) {
	rows := make([][]any, 20)
	for i := range rows {
		rows[i] = []any{nil, int64(i)}
		if i >= 10 {
			rows[i][0] = int64(i)
		}
	}
	f, meta, schema := statsFile(t, []string{"x", "y"}, []*types.Type{types.Bigint, types.Bigint}, rows, 10)
	for _, pred := range []expr.Comparison{
		{Column: "x", Op: expr.OpNeq, Values: []any{int64(5)}},
		{Column: "x", Op: expr.OpLt, Values: []any{int64(100)}},
	} {
		r, err := NewReaderWithFooter(f, meta, schema, AllOptimizations([]string{"y"}, []expr.Comparison{pred}))
		if err != nil {
			t.Fatal(err)
		}
		got := forceAll(t, r)
		// Row group 1 is covered: only its y is decoded.
		if m := r.Metrics; got != 10 || m.RowGroupsSkippedStats.Load() != 1 || m.LeavesDecoded.Load() != 1 {
			t.Errorf("%s: rows %d, skipped by stats %d, leaves decoded %d; want 10, 1, 1", pred, got, m.RowGroupsSkippedStats.Load(), m.LeavesDecoded.Load())
		}
	}
}

// A predicate that keeps every record of a row group its statistics do not
// cover builds no selection, so no output is copied through one: reading
// with x <> 5, which no row holds, allocates less than x <> 6, which drops
// one row and masks every output.
func TestSelectionKeepingEveryRecordMasksNothing(t *testing.T) {
	rows := make([][]any, 64)
	for i := range rows {
		x := int64(i % 10)
		if x == 5 {
			x = 10
		}
		if i == 63 {
			x = 6 // the one row x <> 6 drops
		}
		rows[i] = []any{x, int64(i), int64(2 * i), int64(3 * i)}
	}
	names := []string{"x", "a", "b", "c"}
	f, meta, schema := statsFile(t, names, []*types.Type{types.Bigint, types.Bigint, types.Bigint, types.Bigint}, rows, 64)
	allocs := func(v int64) float64 {
		opts := AllOptimizations(names, []expr.Comparison{{Column: "x", Op: expr.OpNeq, Values: []any{v}}})
		return testing.AllocsPerRun(20, func() {
			r, err := NewReaderWithFooter(f, meta, schema, opts)
			if err != nil {
				t.Fatal(err)
			}
			forceAll(t, r)
		})
	}
	keepAll, dropOne := allocs(5), allocs(6)
	if keepAll >= dropOne {
		t.Errorf("allocations per read: %v keeping every record, %v dropping one: a selection of every record was still applied", keepAll, dropOne)
	}
}

// AnswerFromStats is offered exactly the row groups no predicate needs
// evaluating in; what it answers is never read.
func TestAnswerFromStatsSkipsAnsweredRowGroups(t *testing.T) {
	f, meta, schema := fiveColumns(t, 12, 4) // a = 0..3 | 4..7 | 8..11
	r, err := NewReaderWithFooter(f, meta, schema, AllOptimizations([]string{"b"}, []expr.Comparison{{Column: "a", Op: expr.OpGte, Values: []any{int64(2)}}}))
	if err != nil {
		t.Fatal(err)
	}
	var offered []int64
	r.AnswerFromStats(func(rg *RowGroupMeta) bool {
		offered = append(offered, rg.Chunk(0).Stats.MinI)
		return rg.Chunk(0).Stats.MinI == 8 // answer row group 2 only
	})
	if len(offered) != 2 || offered[0] != 4 || offered[1] != 8 {
		t.Fatalf("offered row groups with a from %v, want [4 8]", offered)
	}
	if got := forceAll(t, r); got != 6 {
		t.Errorf("rows = %d, want 2 of row group 0 and 4 of row group 1", got)
	}
	if m := r.Metrics; m.RowGroupsAnsweredStats.Load() != 1 || m.RowGroupsRead.Load() != 2 || m.LeavesDecoded.Load() != 3 {
		t.Errorf("answered %d, read %d, decoded %d; want 1, 2, 3", m.RowGroupsAnsweredStats.Load(), m.RowGroupsRead.Load(), m.LeavesDecoded.Load())
	}
}
