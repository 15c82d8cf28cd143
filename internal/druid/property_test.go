package druid

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/expr"
	"prestolite/internal/types"
)

// The store against a boxed reference evaluator: Execute runs typed loops,
// vector kernels, statistics and metadata-only answers over three segment
// states; the reference walks [][]any with Comparison.Match and nothing else.

var propCols = []Column{
	{Name: "ts", Type: types.Bigint},
	{Name: "n", Type: types.Bigint},
	{Name: "d", Type: types.Double},
	{Name: "s", Type: types.Varchar},
	{Name: "u", Type: types.Varchar},
}

// propRow is row i: NULLs in every column, doubles that are multiples of 0.5
// (so sums are exact in any order), and an s vocabulary that drifts with i, so
// every segment has a dictionary of its own — none at all in the segment of
// rows 250–299, where s is NULL throughout.
func propRow(rng *rand.Rand, i int) []any {
	row := []any{int64(i), int64(rng.Intn(20) - 5), float64(rng.Intn(16)) / 2, fmt.Sprintf("v%d", i/40+rng.Intn(4)), []string{"us", "de", "jp"}[rng.Intn(3)]}
	for c := range row {
		if rng.Intn(9) == 0 || (c == 3 && i/50 == 5) {
			row[c] = nil
		}
	}
	return row
}

// propTable holds rows in all three states at once: four sealed segments
// compacted into one, two sealed after that, and an open one.
func propTable(t *testing.T, rng *rand.Rand) (*Store, [][]any) {
	t.Helper()
	s := NewStore()
	tab, err := s.CreateTable("t", propCols)
	if err != nil {
		t.Fatal(err)
	}
	tab.SetSegmentConfig(SegmentConfig{SealRows: 50, CompactBelowRows: 60, CompactBatch: 4})
	var rows [][]any
	grow := func(n int) {
		batch := make([][]any, n)
		for i := range batch {
			batch[i] = propRow(rng, len(rows)+i)
		}
		rows = append(rows, batch...)
		if err := tab.Append(batch, time.Unix(0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	grow(200)
	tab.Maintain(time.Unix(0, 0))
	grow(130)
	if st := tab.Stats(); st.Compacted != 1 || st.Sealed != 2 || st.OpenRows != 30 {
		t.Fatalf("fixture is not in all three states: %+v", st)
	}
	return s, rows
}

// reference answers q over rows, boxed. Selects come back in row order;
// aggregates one row per group.
func reference(rows [][]any, q Query) [][]any {
	ord := func(name string) int {
		for i, c := range propCols {
			if c.Name == name {
				return i
			}
		}
		panic("no column " + name)
	}
	var kept [][]any
	for _, r := range rows {
		ok := true
		for _, f := range q.Filters {
			ok = ok && f.Match(r[ord(f.Column)])
		}
		if ok {
			kept = append(kept, r)
		}
	}
	if len(q.Aggregations) == 0 {
		out := make([][]any, len(kept))
		for i, r := range kept {
			for _, c := range q.Columns {
				out[i] = append(out[i], r[ord(c)])
			}
		}
		return out
	}
	groups, keys := map[string][][]any{}, map[string][]any{}
	if len(q.GroupBy) == 0 {
		groups[fmt.Sprintf("%#v", []any(nil))] = nil // a global aggregate has its one group whatever was kept
	}
	for _, r := range kept {
		var key []any
		for _, g := range q.GroupBy {
			key = append(key, r[ord(g)])
		}
		k := fmt.Sprintf("%#v", key)
		groups[k], keys[k] = append(groups[k], r), key
	}
	var out [][]any
	for k, members := range groups {
		row := append([]any(nil), keys[k]...)
		for _, a := range q.Aggregations {
			var vals []any
			for _, r := range members {
				if a.Column == "" {
					vals = append(vals, int64(1))
				} else if v := r[ord(a.Column)]; v != nil {
					vals = append(vals, v)
				}
			}
			row = append(row, fold(a.Func, vals))
		}
		out = append(out, row)
	}
	return out
}

// fold is one aggregate over the non-NULL values of its group.
func fold(fn string, vals []any) any {
	if fn == "count" {
		return int64(len(vals))
	}
	if len(vals) == 0 {
		return nil
	}
	acc, sum := vals[0], 0.0
	for i, v := range vals {
		switch x := v.(type) {
		case int64:
			sum += float64(x)
		case float64:
			sum += x
		}
		switch {
		case i == 0:
		case fn == "sum":
			if x, isInt := v.(int64); isInt {
				acc = acc.(int64) + x
			} else {
				acc = acc.(float64) + v.(float64)
			}
		case fn == "min" && expr.CompareValues(v, acc) < 0, fn == "max" && expr.CompareValues(v, acc) > 0:
			acc = v
		}
	}
	if fn == "avg" {
		return sum / float64(len(vals))
	}
	return acc
}

func multiset(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%#v", r)
	}
	sort.Strings(out)
	return out
}

// minus is the rows of a that b does not hold.
func minus(a, b []string) []string {
	left := map[string]int{}
	for _, r := range b {
		left[r]++
	}
	var out []string
	for _, r := range a {
		if left[r]--; left[r] < 0 {
			out = append(out, r)
		}
	}
	return out
}

// randomFilter draws a comparison on any column, with any operator, whose
// literal is of the column's kind or of the other numeric kind.
func randomFilter(rng *rand.Rand, rows int) expr.Comparison {
	col := propCols[rng.Intn(len(propCols))]
	lit := func() any {
		switch {
		case col.Name == "s":
			return fmt.Sprintf("v%d", rng.Intn(rows/40+4))
		case col.Name == "u":
			return []string{"us", "de", "jp", "xx"}[rng.Intn(4)]
		case col.Name == "ts":
			return int64(rng.Intn(rows+20) - 10)
		case rng.Intn(2) == 0:
			return int64(rng.Intn(24) - 8)
		}
		return float64(rng.Intn(40)-8) / 4
	}
	f := expr.Comparison{Column: col.Name, Op: expr.CompareOp(rng.Intn(int(expr.OpIn) + 1)), Values: []any{lit()}}
	for f.Op == expr.OpIn && rng.Intn(2) == 0 {
		f.Values = append(f.Values, lit())
	}
	return f
}

func randomQuery(rng *rand.Rand, rows int) Query {
	q := Query{Table: "t"}
	for n := rng.Intn(4); n > 0; n-- {
		q.Filters = append(q.Filters, randomFilter(rng, rows))
	}
	if rng.Intn(3) == 0 {
		q.Limit = int64(1 + rng.Intn(rows))
	}
	names := make([]string, len(propCols))
	for i, c := range propCols {
		names[i] = c.Name
	}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	shape := rng.Intn(3)
	if shape == 0 {
		q.Columns = names[:1+rng.Intn(len(names))]
		return q
	}
	if shape == 1 {
		q.GroupBy = names[:1+rng.Intn(2)]
	}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		col := propCols[rng.Intn(len(propCols))]
		fns := []string{"count", "min", "max"}
		if col.Type != types.Varchar {
			fns = append(fns, "sum", "avg")
		}
		a := Aggregation{Func: fns[rng.Intn(len(fns))], Column: col.Name, Name: fmt.Sprintf("a%d", n)}
		if a.Func == "count" && rng.Intn(2) == 0 {
			a.Column = ""
		}
		q.Aggregations = append(q.Aggregations, a)
	}
	return q
}

func TestExecuteMatchesBoxedReference(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		rng := rand.New(rand.NewSource(seed))
		s, rows := propTable(t, rng)
		// The shapes statistics answer whole: no filter, and filters every
		// segment (ts >= 0) or no segment past the first (ts < 10) is covered by.
		queries := []Query{
			{Table: "t", Aggregations: []Aggregation{{Func: "count"}, {Func: "count", Column: "d"}, {Func: "count", Column: "s"}, {Func: "min", Column: "d"}, {Func: "max", Column: "ts"}}},
			{Table: "t", Filters: []expr.Comparison{{Column: "ts", Op: expr.OpGte, Values: []any{int64(0)}}}, Aggregations: []Aggregation{{Func: "count"}, {Func: "max", Column: "n"}}},
			{Table: "t", Filters: []expr.Comparison{{Column: "ts", Op: expr.OpLt, Values: []any{int64(10)}}}, Aggregations: []Aggregation{{Func: "count"}, {Func: "min", Column: "ts"}}},
			{Table: "t", Filters: []expr.Comparison{{Column: "ts", Op: expr.OpGt, Values: []any{int64(1 << 40)}}}, Aggregations: []Aggregation{{Func: "count"}, {Func: "max", Column: "ts"}}},
		}
		for len(queries) < 400 {
			queries = append(queries, randomQuery(rng, len(rows)))
		}
		for _, q := range queries {
			res, err := s.Execute(q)
			if err != nil {
				t.Fatalf("seed %d: %+v: %v", seed, q, err)
			}
			got, want := res.Rows(), reference(rows, q)
			if out := leavingRows(t, res); !reflect.DeepEqual(out, append(got, got...)) {
				t.Fatalf("seed %d: %+v: the pages read %v in place, %v flattened and decoded", seed, q, got, out)
			}
			if q.Limit > 0 && int64(len(want)) > q.Limit {
				// Which rows a limit keeps is the store's choice (segment
				// order; key order for groups): the right number of them,
				// each a row of the full answer.
				if int64(len(got)) != q.Limit {
					t.Fatalf("seed %d: %+v: %d rows under the limit, reference has %d", seed, q, len(got), len(want))
				}
				if extra := minus(multiset(got), multiset(want)); len(extra) > 0 {
					t.Fatalf("seed %d: %+v: rows %v are not in the reference answer", seed, q, extra)
				}
				continue
			}
			if g, w := multiset(got), multiset(want); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d: %+v:\nonly the store:     %v\nonly the reference: %v", seed, q, minus(g, w), minus(w, g))
			}
			if len(q.GroupBy) > 0 && !sort.SliceIsSorted(got, func(i, j int) bool { return lessBoxed(got[i], got[j], len(q.GroupBy)) }) {
				t.Fatalf("seed %d: %+v: groups out of key order: %v", seed, q, got)
			}
		}
	}
}

// leavingRows reads a result the two ways it leaves the store's process:
// flattened, as an engine materializes pages for a client, and through the
// page codec, as the broker and the workers ship them. It returns the rows of
// the one reading followed by the rows of the other.
func leavingRows(t *testing.T, res *Result) [][]any {
	t.Helper()
	flat, wire := &Result{}, &Result{}
	for _, p := range res.Pages {
		data, err := block.EncodePage(p)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := block.DecodePage(data)
		if err != nil {
			t.Fatal(err)
		}
		flat.Pages, wire.Pages = append(flat.Pages, block.MaterializePage(p)), append(wire.Pages, decoded)
	}
	return append(flat.Rows(), wire.Rows()...)
}

// lessBoxed orders two result rows by their first nk values, NULL first.
func lessBoxed(a, b []any, nk int) bool {
	for k := 0; k < nk; k++ {
		switch {
		case a[k] == nil && b[k] == nil:
		case a[k] == nil || b[k] == nil:
			return a[k] == nil
		default:
			if c := expr.CompareValues(a[k], b[k]); c != 0 {
				return c < 0
			}
		}
	}
	return false
}

// TestExecuteWhileAppending: queries see a frozen prefix of the open segment
// with statistics that describe exactly that prefix. Run under -race.
func TestExecuteWhileAppending(t *testing.T) {
	s := NewStore()
	tab, err := s.CreateTable("t", propCols)
	if err != nil {
		t.Fatal(err)
	}
	tab.SetSegmentConfig(SegmentConfig{SealRows: 700, CompactBelowRows: 800, CompactBatch: 2})
	const total = 20000
	var handed atomic.Int64 // rows handed to Append so far: row i has ts == i
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < total; {
			batch := make([][]any, 1+rng.Intn(40))
			for j := range batch {
				batch[j] = propRow(rng, i+j)
				batch[j][0] = int64(i + j) // ts is never NULL here
			}
			i += len(batch)
			handed.Store(int64(i))
			if err := tab.Append(batch, time.Unix(0, 0)); err != nil {
				t.Error(err)
				return
			}
			if i%1500 < 40 {
				tab.Maintain(time.Unix(0, 0))
			}
		}
	}()
	all := []expr.Comparison{{Column: "ts", Op: expr.OpGte, Values: []any{int64(0)}}}
	last := int64(0)
	round := func() {
		for _, q := range []Query{
			{Table: "t", Filters: all, Aggregations: []Aggregation{{Func: "count"}, {Func: "max", Column: "ts"}}},                             // metadata only
			{Table: "t", Filters: all, Aggregations: []Aggregation{{Func: "count"}, {Func: "max", Column: "ts"}, {Func: "sum", Column: "n"}}}, // every row
		} {
			res, err := s.Execute(q)
			seen := handed.Load()
			if err != nil {
				t.Fatal(err)
			}
			row := res.Rows()[0]
			n, _ := row[0].(int64)
			if n > seen || n < last {
				t.Fatalf("count %d: %d rows were handed to Append, and an earlier query counted %d", n, seen, last)
			}
			if m, ok := row[1].(int64); n > 0 && (!ok || m != n-1) {
				t.Fatalf("count %d beside max(ts) %v: the newest row counted is ts %d", n, row[1], n-1)
			}
			last = n
		}
	}
	for handed.Load() < total {
		round()
	}
	wg.Wait()
	if round(); last != handed.Load() {
		t.Fatalf("after the writer finished: count %d, want %d", last, handed.Load())
	}
}

// TestNaNDisablesStatistics: a NaN compares equal to everything (as
// Comparison.Match has it), so no [min, max] says what a segment holding one
// can match, and a min or max over it is the kernels' to compute.
func TestNaNDisablesStatistics(t *testing.T) {
	s := NewStore()
	tab, err := s.CreateTable("t", propCols)
	if err != nil {
		t.Fatal(err)
	}
	tab.SetSegmentConfig(SegmentConfig{SealRows: 3, CompactBelowRows: 4, CompactBatch: 2})
	var rows [][]any
	for i, d := range []float64{1, math.NaN(), 3, 4, 5, 6, 8} {
		rows = append(rows, []any{int64(i), nil, d, nil, nil})
	}
	if err := tab.Append(rows, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	check := func(state string) {
		t.Helper()
		for _, f := range []expr.Comparison{
			{Column: "d", Op: expr.OpEq, Values: []any{7.0}}, // outside every segment's other values
			{Column: "d", Op: expr.OpGt, Values: []any{2.0}},
			{Column: "d", Op: expr.OpLte, Values: []any{100.0}},
		} {
			q := Query{Table: "t", Filters: []expr.Comparison{f}, Aggregations: []Aggregation{{Func: "count"}}}
			res, err := s.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.Rows(), reference(rows, q); !reflect.DeepEqual(multiset(got), multiset(want)) {
				t.Errorf("%s, %s: count %v, reference %v", state, f, got, want)
			}
		}
		res, err := s.Execute(Query{Table: "t", Aggregations: []Aggregation{{Func: "max", Column: "d"}}})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows()[0][0]; got != 8.0 {
			t.Errorf("%s: max(d) = %v, want 8", state, got)
		}
	}
	check("sealed")
	tab.Maintain(time.Unix(0, 0))
	if st := tab.Stats(); st.Compacted != 1 {
		t.Fatalf("fixture did not compact: %+v", st)
	}
	check("compacted")
}
