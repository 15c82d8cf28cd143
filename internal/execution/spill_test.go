package execution

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/expr"
	"prestolite/internal/planner"
	"prestolite/internal/resource"
	"prestolite/internal/types"
)

// spillEnv builds a capped query pool plus a spill manager rooted in a test
// temp dir, and registers a leak check: when the test ends no run may be
// live and no reservation may be held.
func spillEnv(t *testing.T, limit int64) (*resource.Pool, *resource.SpillManager) {
	t.Helper()
	pool := resource.NewPool("query", limit)
	mgr, err := resource.NewSpillManager(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if runs := mgr.LiveRuns(); len(runs) != 0 {
			t.Errorf("leaked spill runs: %v", runs)
		}
		if got := pool.Reserved(); got != 0 {
			t.Errorf("leaked reservation: %d bytes", got)
		}
	})
	return pool, mgr
}

// twoColPages generates deterministic (key, seq) pages: keys cycle with
// duplicates so sorts exercise stability and aggregations have real groups.
func twoColPages(rows, perPage, keyMod int) []*block.Page {
	var pages []*block.Page
	pb := block.NewPageBuilder([]*types.Type{types.Bigint, types.Bigint})
	n := 0
	for i := 0; i < rows; i++ {
		// Simple LCG-ish scatter so input is far from sorted.
		k := int64((i*2654435761 + 7) % keyMod)
		pb.AppendRow([]any{k, int64(i)})
		n++
		if n == perPage {
			pages = append(pages, pb.Build())
			pb = block.NewPageBuilder([]*types.Type{types.Bigint, types.Bigint})
			n = 0
		}
	}
	if n > 0 {
		pages = append(pages, pb.Build())
	}
	return pages
}

// drainRows drains op into boxed rows. It fails when an output column
// changes block kind from page to page (block.Concat panics on that), as a
// LEFT join's NULL extension of a nested column would if it were not built
// at the column's type.
func drainRows(t *testing.T, op Operator) [][]any {
	t.Helper()
	pages, err := Drain(op)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; len(pages) > 0 && c < len(pages[0].Blocks); c++ {
		col := make([]block.Block, len(pages))
		for i, p := range pages {
			col[i] = p.Blocks[c]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("output column %d: %v", c, r)
				}
			}()
			block.Concat(col)
		}()
	}
	var rows [][]any
	for _, p := range pages {
		for i := 0; i < p.Count(); i++ {
			rows = append(rows, p.Row(i))
		}
	}
	return rows
}

func sortedMultiset(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func twoColValues() *planner.Values {
	return &planner.Values{Cols: []planner.Column{
		{Name: "k", Type: types.Bigint}, {Name: "seq", Type: types.Bigint},
	}}
}

func TestSortSpillEquivalence(t *testing.T) {
	node := &planner.Sort{Child: twoColValues(), Keys: []planner.SortKey{{Channel: 0}}}
	input := twoColPages(4000, 128, 50)

	baseline := drainRows(t, newSortOperator(node, &pagesOperator{pages: input}, &opMem{op: "test"}))

	pool, mgr := spillEnv(t, 8<<10) // far below the ~64KB the buffer needs
	op := newSortOperator(node, &pagesOperator{pages: input}, &opMem{op: "test", pool: pool, spill: mgr})
	got := drainRows(t, op)

	// External sort must reproduce the in-memory order exactly — including
	// the stable tie-break on the seq column within duplicate keys.
	if !reflect.DeepEqual(got, baseline) {
		t.Fatalf("spilled sort diverged: %d vs %d rows (first diff at %d)",
			len(got), len(baseline), firstDiff(got, baseline))
	}
	if pool.Spilled() == 0 {
		t.Fatal("sort never spilled despite the tiny limit")
	}
}

// The external sort's merge is the shared streamMergeOperator over run
// sources: with duplicate keys, NULLs and a DESC key it must return exactly
// the in-memory sort's order (ties keep input order across runs), and the
// spill directory must be empty after EOF and after an early Close.
func TestSortSpillMergeOrderAndCleanup(t *testing.T) {
	cols := []planner.Column{
		{Name: "k", Type: types.Bigint}, {Name: "d", Type: types.Bigint}, {Name: "seq", Type: types.Bigint},
	}
	node := &planner.Sort{
		Child: &planner.Values{Cols: cols},
		Keys:  []planner.SortKey{{Channel: 0}, {Channel: 1, Desc: true}},
	}
	var input []*block.Page
	for start := 0; start < 4000; start += 128 {
		pb := block.NewPageBuilder([]*types.Type{types.Bigint, types.Bigint, types.Bigint})
		for i := start; i < start+128 && i < 4000; i++ {
			var k, d any = int64((i*2654435761 + 7) % 9), int64(i % 3)
			if i%7 == 0 {
				k = nil
			}
			if i%11 == 0 {
				d = nil
			}
			pb.AppendRow([]any{k, d, int64(i)})
		}
		input = append(input, pb.Build())
	}
	baseline := drainRows(t, newSortOperator(node, &pagesOperator{pages: input}, &opMem{op: "test"}))

	spillDirEmpty := func(mgr *resource.SpillManager, when string) {
		t.Helper()
		if runs := mgr.LiveRuns(); len(runs) != 0 {
			t.Fatalf("%s: live runs left in the spill directory: %v", when, runs)
		}
	}

	pool, mgr := spillEnv(t, 8<<10)
	got := drainRows(t, newSortOperator(node, &pagesOperator{pages: input}, &opMem{op: "test", pool: pool, spill: mgr}))
	if !reflect.DeepEqual(got, baseline) {
		t.Fatalf("spilled sort diverged: %d vs %d rows (first diff at %d)", len(got), len(baseline), firstDiff(got, baseline))
	}
	if pool.Spilled() == 0 {
		t.Fatal("sort never spilled despite the tiny limit")
	}
	spillDirEmpty(mgr, "after EOF")

	pool, mgr = spillEnv(t, 8<<10)
	op := newSortOperator(node, &pagesOperator{pages: input}, &opMem{op: "test", pool: pool, spill: mgr})
	if _, err := op.Next(); err != nil {
		t.Fatal(err)
	}
	if len(mgr.LiveRuns()) < 2 {
		t.Fatalf("want several live runs mid-merge, have %d", len(mgr.LiveRuns()))
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	spillDirEmpty(mgr, "after an early Close")
}

func firstDiff(a, b [][]any) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if !reflect.DeepEqual(a[i], b[i]) {
			return i
		}
	}
	return -1
}

func joinNode(kind planner.JoinKind) *planner.Join {
	return &planner.Join{
		Kind: kind,
		Left: &planner.Values{Cols: []planner.Column{
			{Name: "lk", Type: types.Bigint}, {Name: "lseq", Type: types.Bigint},
		}},
		Right: &planner.Values{Cols: []planner.Column{
			{Name: "rk", Type: types.Bigint}, {Name: "rseq", Type: types.Bigint},
		}},
		LeftKeys: []int{0}, RightKeys: []int{0},
	}
}

func testJoinSpill(t *testing.T, kind planner.JoinKind) {
	t.Helper()
	node := joinNode(kind)
	// Probe keys 0..99, build keys 0..49: LEFT joins have unmatched rows.
	probe := twoColPages(1500, 96, 100)
	build := twoColPages(3000, 96, 50)

	baseline := drainRows(t, newVectorJoinOperator(node,
		&pagesOperator{pages: probe}, &pagesOperator{pages: build}, &opMem{op: "test"}))

	pool, mgr := spillEnv(t, 8<<10)
	op := newVectorJoinOperator(node,
		&pagesOperator{pages: probe}, &pagesOperator{pages: build},
		&opMem{op: "test", pool: pool, spill: mgr})
	got := drainRows(t, op)

	// Hash-join output order is unspecified; compare as multisets.
	if !reflect.DeepEqual(sortedMultiset(got), sortedMultiset(baseline)) {
		t.Fatalf("spilled join diverged: %d vs %d rows", len(got), len(baseline))
	}
	if pool.Spilled() == 0 {
		t.Fatal("join never spilled despite the tiny limit")
	}
}

func TestInnerJoinSpillEquivalence(t *testing.T) { testJoinSpill(t, planner.JoinInner) }
func TestLeftJoinSpillEquivalence(t *testing.T)  { testJoinSpill(t, planner.JoinLeft) }

// releaseOnNext runs release before its first page: a sibling driver that
// finishes, and gives its memory back, once probe pages flow.
type releaseOnNext struct {
	Operator
	release func()
}

func (r *releaseOnNext) Next() (*block.Page, error) {
	if r.release != nil {
		r.release()
		r.release = nil
	}
	return r.Operator.Next()
}

// TestJoinSpillsWhatASiblingLeftNoRoomFor: a sibling holds 7 KiB of the
// join's 8 KiB pool until the probe side's first page. Each build page is
// then refused twice — before and after the chunk in front of it spilled —
// and must go to disk as a run of its own rather than wait on a hard
// reservation nobody can satisfy; once the sibling is gone the passes load
// each run whole and the join returns the rows it returns uncapped.
func TestJoinSpillsWhatASiblingLeftNoRoomFor(t *testing.T) {
	for _, kind := range []planner.JoinKind{planner.JoinInner, planner.JoinLeft} {
		node := joinNode(kind)
		probe := twoColPages(1500, 96, 100)
		build := twoColPages(3000, 96, 50)
		want := sortedMultiset(drainRows(t, newVectorJoinOperator(node,
			&pagesOperator{pages: probe}, &pagesOperator{pages: build}, &opMem{op: "test"})))

		pool, mgr := spillEnv(t, 8<<10)
		if err := pool.TryReserve(7 << 10); err != nil {
			t.Fatal(err)
		}
		sibling := &releaseOnNext{Operator: &pagesOperator{pages: probe}, release: func() { pool.Release(7 << 10) }}
		got := sortedMultiset(drainRows(t, newVectorJoinOperator(node,
			sibling, &pagesOperator{pages: build}, &opMem{op: "test", pool: pool, spill: mgr})))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("kind %v: %d rows, want %d", kind, len(got), len(want))
		}
		if pool.Spilled() == 0 {
			t.Fatalf("kind %v: the join never spilled", kind)
		}
	}
}

func aggNode() *planner.Aggregate {
	return &planner.Aggregate{
		Child:   twoColValues(),
		GroupBy: []int{0},
		Aggs: []planner.Aggregation{{
			FuncName: "sum", Args: []int{1}, ArgTypes: []*types.Type{types.Bigint},
			OutputName: "s", InterType: types.Bigint, FinalType: types.Bigint,
		}},
		Step: planner.AggSingle,
	}
}

// TestAggregateSpillEquivalence: a grouped aggregation far over its cap
// spills its table and merges the runs back, and must still return the
// boxed oracle's rows — with a nested key, whose groups are sorted and
// merged by their key bytes, and an approx_distinct, whose boxed states
// travel through the runs and the merge. A DISTINCT aggregation over the
// same cap cannot spill: it fails typed, spilling nothing and holding
// nothing.
func TestAggregateSpillEquivalence(t *testing.T) {
	arr := types.NewArray(types.Bigint)
	cols := []planner.Column{{Name: "k", Type: types.Bigint}, {Name: "seq", Type: types.Bigint}, {Name: "arr", Type: arr}}
	var input []*block.Page
	var rows [][]any
	for _, p := range twoColPages(4000, 128, 600) { // 600 keys: real hash-table pressure
		pb := block.NewPageBuilder([]*types.Type{types.Bigint, types.Bigint, arr})
		for i := 0; i < p.Count(); i++ {
			row := append(p.Row(i), []any{p.Row(i)[1].(int64) / 2000, nil})
			pb.AppendRow(row)
			rows = append(rows, row)
		}
		input = append(input, pb.Build())
	}
	agg := func(name string, distinct bool) planner.Aggregation {
		fn, err := expr.ResolveAggregate(name, []*types.Type{types.Bigint})
		if err != nil {
			t.Fatal(err)
		}
		return planner.Aggregation{FuncName: name, Args: []int{1}, ArgTypes: []*types.Type{types.Bigint}, Distinct: distinct,
			OutputName: name, InterType: fn.IntermediateType(nil), FinalType: fn.FinalType(nil)}
	}
	node := &planner.Aggregate{
		Child: &planner.Values{Cols: cols}, GroupBy: []int{0, 2},
		Aggs: []planner.Aggregation{agg("sum", false), agg("approx_distinct", false)}, Step: planner.AggSingle,
	}
	pool, mgr := spillEnv(t, 24<<10)
	op, err := newVectorAggOperator(&Context{Memory: pool, Spill: mgr}, node, &pagesOperator{pages: input})
	if err != nil {
		t.Fatal(err)
	}
	got := sortedMultiset(drainRows(t, op))
	// Group emission order differs after a spill/merge round trip; compare
	// the groups as sets.
	if want := boxedAggregate(t, node, rows); !reflect.DeepEqual(got, want) {
		t.Fatalf("spilled aggregation diverged: %d vs %d groups", len(got), len(want))
	}
	if pool.Spilled() == 0 {
		t.Fatal("aggregation never spilled despite the tiny limit")
	}

	node = &planner.Aggregate{Child: node.Child, GroupBy: []int{0}, Aggs: []planner.Aggregation{agg("count", true)}, Step: planner.AggSingle}
	pool, mgr = spillEnv(t, 24<<10)
	op, err = newVectorAggOperator(&Context{Memory: pool, Spill: mgr}, node, &pagesOperator{pages: input})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Drain(op)
	var insufficient ErrInsufficientResources
	if !errors.As(err, &insufficient) {
		t.Fatalf("DISTINCT over the cap: want ErrInsufficientResources, got %v", err)
	}
	// Spill was on: the error names the pool that refused and does not
	// advise turning spill on.
	if msg := err.Error(); !strings.Contains(msg, `limit of memory pool "query"`) || strings.Contains(msg, "spill_enabled") {
		t.Errorf("DISTINCT over the cap with spill on: %q", msg)
	}
	if pool.Spilled() != 0 {
		t.Fatalf("a DISTINCT aggregation spilled %d bytes", pool.Spilled())
	}
	// spillEnv's cleanup asserts that nothing stays reserved or on disk.
}

// Satellite (a): hash aggregation must respect the memory limit through the
// same accounting path as join and sort — no spill manager, tiny limit, and
// a many-group aggregation must fail typed instead of buffering unbounded.
func TestAggregateEnforcesLimitWithoutSpill(t *testing.T) {
	pool := resource.NewPool("query", 4<<10)
	op, err := newVectorAggOperator(&Context{Memory: pool}, aggNode(), &pagesOperator{pages: twoColPages(4000, 128, 600)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Drain(op)
	var insufficient ErrInsufficientResources
	if !errors.As(err, &insufficient) {
		t.Fatalf("want ErrInsufficientResources, got %v", err)
	}
	if !errors.Is(err, resource.ErrPoolExhausted) {
		t.Fatalf("cause should be pool exhaustion, got %v", err)
	}
	if msg := err.Error(); !strings.Contains(msg, `limit of memory pool "query"`) || !strings.Contains(msg, "enable spill_enabled") {
		t.Errorf("without spill: %q should name the pool and advise spill_enabled", msg)
	}
	if got := pool.Reserved(); got != 0 {
		t.Fatalf("failed aggregation leaked %d bytes", got)
	}
}

// Satellite (b), operator level: abandoning a spilled operator mid-stream
// (query cancel) must remove its runs and release its reservations.
func TestSpillRunsCleanedOnEarlyClose(t *testing.T) {
	node := &planner.Sort{Child: twoColValues(), Keys: []planner.SortKey{{Channel: 0}}}
	pool, mgr := spillEnv(t, 8<<10)
	op := newSortOperator(node, &pagesOperator{pages: twoColPages(4000, 128, 50)},
		&opMem{op: "test", pool: pool, spill: mgr})
	if _, err := op.Next(); err != nil {
		t.Fatal(err)
	}
	if len(mgr.LiveRuns()) == 0 {
		t.Fatal("sort should have live spill runs mid-stream")
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	// spillEnv's cleanup asserts LiveRuns and Reserved are both zero.
}
