package hive

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/cache"
	"prestolite/internal/connector"
	"prestolite/internal/core"
	"prestolite/internal/expr"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/parquet"
	"prestolite/internal/types"
)

var eventCols = []metastore.Column{{Name: "ts", Type: types.Bigint}, {Name: "country", Type: types.Varchar}, {Name: "clicks", Type: types.Bigint}}

// eventsPage holds rows ts = from .. to-1, country cycling over three
// values and clicks = ts % 10.
func eventsPage(from, to int) *block.Page {
	pb := block.NewPageBuilder([]*types.Type{types.Bigint, types.Varchar, types.Bigint})
	for i := from; i < to; i++ {
		pb.AppendRow([]any{int64(i), []string{"us", "de", "jp"}[i%3], int64(i % 10)})
	}
	return pb.Build()
}

// eventsTable registers web.events with one partition "today" of files
// holding pages, in row groups of 64 rows.
func eventsTable(t *testing.T, sealed bool, pages ...*block.Page) (*Connector, *Loader) {
	t.Helper()
	fs, ms := hdfs.New(hdfs.Config{}), metastore.New()
	loader := &Loader{MS: ms, FS: fs, WriterOptions: parquet.WriterOptions{RowGroupRows: 64}}
	if err := loader.CreatePartitionedTable("web", "events", eventCols, "datestr",
		map[string][]*block.Page{"today": pages}, map[string]bool{"today": sealed}); err != nil {
		t.Fatal(err)
	}
	return New("hive", ms, fs, Options{}), loader
}

// pushedHandle is the handle the optimizer would give a scan of web.events
// that absorbed aggs grouped by groupBy, with preds pushed.
func pushedHandle(t *testing.T, c *Connector, preds []expr.Comparison, groupBy []int, aggs ...connector.AggregateSpec) *TableHandle {
	t.Helper()
	_, handle, err := c.Metadata().GetTable("web", "events")
	if err != nil {
		t.Fatal(err)
	}
	h := handle.(*TableHandle)
	h.DataPreds = preds
	pushed, perSplit, ok := c.PushAggregation(h, aggs, groupBy)
	if !ok || !perSplit {
		t.Fatalf("not absorbed per split: %v %v", ok, perSplit)
	}
	return pushed.(*TableHandle)
}

// splitRows reads every split of h and returns each split's partial rows.
func splitRows(t *testing.T, c *Connector, h *TableHandle) [][][]any {
	t.Helper()
	splits, err := c.SplitManager().Splits(h)
	if err != nil {
		t.Fatal(err)
	}
	columns := make([]int, len(h.GroupBy)+len(h.Aggs))
	for i := range columns {
		columns[i] = i
	}
	var out [][][]any
	for _, sp := range splits {
		src, err := c.RecordSetProvider().CreatePageSource(h, sp, columns)
		if err != nil {
			t.Fatal(err)
		}
		var rows [][]any
		for {
			p, err := src.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < p.Count(); r++ {
				rows = append(rows, p.Row(r))
			}
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		out = append(out, rows)
	}
	return out
}

var countStar = connector.AggregateSpec{Function: "count", ArgColumn: -1}

// A file whose every row group the predicate prunes has no partial rows
// when grouped, and its one global row when not — from the file, and again
// from the memo.
func TestPrunedFileHasNoGroupsAndOneGlobalRow(t *testing.T) {
	c, _ := eventsTable(t, true, eventsPage(0, 200), eventsPage(200, 400))
	none := []expr.Comparison{{Column: "ts", Op: expr.OpLt, Values: []any{int64(-1)}}}
	maxClicks := connector.AggregateSpec{Function: "max", ArgColumn: 2}
	grouped := pushedHandle(t, c, none, []int{1}, countStar, maxClicks)
	global := pushedHandle(t, c, none, nil, countStar, maxClicks)
	for run := 0; run < 2; run++ {
		if got := splitRows(t, c, grouped); !reflect.DeepEqual(got, [][][]any{nil, nil}) {
			t.Errorf("run %d grouped: %v, want no row from either file", run, got)
		}
		if got, want := splitRows(t, c, global), [][][]any{{{int64(0), nil}}, {{int64(0), nil}}}; !reflect.DeepEqual(got, want) {
			t.Errorf("run %d global: %v, want %v", run, got, want)
		}
	}
	if h := c.partials.Metrics.Hits.Load(); h != 4 {
		t.Errorf("memo hits = %d, want 4 (two files, two handles, second run)", h)
	}
}

// groupedAnswer is H2's shape over web.events through an engine.
func groupedAnswer(t *testing.T, e *core.Engine) []string {
	t.Helper()
	res, err := e.Query(core.DefaultSession("hive", "web"), "SELECT country, count(*), sum(clicks), min(ts), max(ts) FROM events GROUP BY country")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range res.Rows() {
		out = append(out, fmt.Sprint(r))
	}
	sort.Strings(out)
	return out
}

func expectedGroups(from, to int) []string {
	type g struct{ n, sum, lo, hi int64 }
	by := map[string]*g{}
	for i := from; i < to; i++ {
		c := []string{"us", "de", "jp"}[i%3]
		x := by[c]
		if x == nil {
			x = &g{lo: int64(i)}
			by[c] = x
		}
		x.n, x.sum, x.hi = x.n+1, x.sum+int64(i%10), int64(i)
	}
	var out []string
	for c, x := range by {
		out = append(out, fmt.Sprint([]any{c, x.n, x.sum, x.lo, x.hi}))
	}
	sort.Strings(out)
	return out
}

// A file of an open partition rewritten in place gets a new stamp, so its
// memoised partial is no longer addressed: the next statement reads the
// new bytes.
func TestRewrittenFileMissesItsPartial(t *testing.T) {
	c, loader := eventsTable(t, false, eventsPage(0, 300))
	e := core.New()
	e.Register("hive", c)
	for run := 0; run < 2; run++ {
		if got, want := groupedAnswer(t, e), expectedGroups(0, 300); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: %v, want %v", run, got, want)
		}
	}
	if c.partials.Metrics.Hits.Load() != 1 {
		t.Fatalf("fixture: the second run did not hit the memo (%d hits)", c.partials.Metrics.Hits.Load())
	}
	path := "/warehouse/web/events/datestr=today/part-00000"
	if err := loader.writeOne(path, eventCols, []*block.Page{eventsPage(1000, 1250)}); err != nil {
		t.Fatal(err)
	}
	if got, want := groupedAnswer(t, e), expectedGroups(1000, 1250); !reflect.DeepEqual(got, want) {
		t.Errorf("after the rewrite: %v, want %v", got, want)
	}
}

// PushAggregation absorbs a grouped aggregate only where the footers bound
// each file's groups well under its rows: a dictionary-coded varchar key or
// a narrow integer range does, a unique key or a plain varchar key does not.
func TestGroupedAbsorptionNeedsFewerGroupsThanRows(t *testing.T) {
	for _, plain := range []bool{false, true} {
		fs, ms := hdfs.New(hdfs.Config{}), metastore.New()
		loader := &Loader{MS: ms, FS: fs, WriterOptions: parquet.WriterOptions{RowGroupRows: 64, DisableDictionary: plain}}
		if err := loader.CreatePartitionedTable("web", "events", eventCols, "datestr",
			map[string][]*block.Page{"today": {eventsPage(0, 200), eventsPage(200, 400)}}, map[string]bool{"today": true}); err != nil {
			t.Fatal(err)
		}
		c := New("hive", ms, fs, Options{})
		_, handle, err := c.Metadata().GetTable("web", "events")
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			groupBy []int
			want    bool
		}{
			{[]int{1}, !plain}, // country: 3 dictionary entries per row group
			{[]int{2}, true},   // clicks: 0 to 9
			{[]int{0}, false},  // ts: unique
			{[]int{0, 1}, false},
			{nil, true}, // global
		} {
			if _, _, ok := c.PushAggregation(handle, []connector.AggregateSpec{countStar}, tc.groupBy); ok != tc.want {
				t.Errorf("plain=%v GROUP BY %v: absorbed=%v, want %v", plain, tc.groupBy, ok, tc.want)
			}
		}
	}
}

// groupedHandle is a scan of web.events that absorbed aggs grouped by
// groupBy, as a worker may be sent it whatever its keys' footers bound.
func groupedHandle(t *testing.T, c *Connector, groupBy []int, aggs ...Aggregate) *TableHandle {
	t.Helper()
	_, handle, err := c.Metadata().GetTable("web", "events")
	if err != nil {
		t.Fatal(err)
	}
	h := handle.(*TableHandle)
	h.GroupBy, h.Aggs = groupBy, aggs
	return h
}

// A split folds plain and dictionary-coded varchar keys alike: merged over
// the splits, its partial rows are the groups of the rows it wrote, from
// the file and again from the memo.
func TestSplitsFoldPlainAndDictionaryKeys(t *testing.T) {
	for _, plain := range []bool{false, true} {
		fs, ms := hdfs.New(hdfs.Config{}), metastore.New()
		loader := &Loader{MS: ms, FS: fs, WriterOptions: parquet.WriterOptions{RowGroupRows: 64, DisableDictionary: plain}}
		if err := loader.CreatePartitionedTable("web", "events", eventCols, "datestr",
			map[string][]*block.Page{"today": {eventsPage(0, 150), eventsPage(150, 400)}}, map[string]bool{"today": true}); err != nil {
			t.Fatal(err)
		}
		c := New("hive", ms, fs, Options{})
		h := groupedHandle(t, c, []int{1}, Aggregate{Func: "count", Column: -1}, Aggregate{Func: "sum", Column: 2}, Aggregate{Func: "min", Column: 0}, Aggregate{Func: "max", Column: 0})
		for run := 0; run < 2; run++ {
			merged := map[string][]int64{}
			for _, rows := range splitRows(t, c, h) {
				for _, r := range rows {
					g, ok := merged[r[0].(string)]
					if !ok {
						g = []int64{0, 0, r[3].(int64), r[4].(int64)}
					}
					merged[r[0].(string)] = []int64{g[0] + r[1].(int64), g[1] + r[2].(int64), min(g[2], r[3].(int64)), max(g[3], r[4].(int64))}
				}
			}
			var got []string
			for k, g := range merged {
				got = append(got, fmt.Sprint([]any{k, g[0], g[1], g[2], g[3]}))
			}
			sort.Strings(got)
			if want := expectedGroups(0, 400); !reflect.DeepEqual(got, want) {
				t.Errorf("plain=%v run %d: %v, want %v", plain, run, got, want)
			}
		}
		if hits := c.partials.Metrics.Hits.Load(); hits != 2 {
			t.Errorf("plain=%v: %d memo hits, want 2 (two files, second run)", plain, hits)
		}
	}
}

// GROUP BY ts — one group per row — over more files than the memo holds:
// the memo's resident bytes never exceed its budget, it evicts, and every
// split's answer is exact, hit or miss.
func TestPartialsMemoStaysWithinItsBudget(t *testing.T) {
	const files, rows = 32, 200
	var pages []*block.Page
	for f := 0; f < files; f++ {
		pages = append(pages, eventsPage(f*rows, (f+1)*rows))
	}
	c, _ := eventsTable(t, true, pages...)
	const budget = 128 << 10 // each file's partial is some 8 KiB, under the budget's eighth
	c.partials = cache.NewPageMemo[string](budget)
	h := groupedHandle(t, c, []int{0}, Aggregate{Func: "count", Column: -1}, Aggregate{Func: "sum", Column: 2}, Aggregate{Func: "max", Column: 1})
	for run := 0; run < 3; run++ {
		n := 0
		for _, split := range splitRows(t, c, h) {
			for _, r := range split {
				ts := r[0].(int64)
				if want := []any{ts, int64(1), ts % 10, []string{"us", "de", "jp"}[ts%3]}; !reflect.DeepEqual(r, want) {
					t.Fatalf("run %d: row %v, want %v", run, r, want)
				}
				n++
			}
		}
		if n != files*rows {
			t.Fatalf("run %d: %d groups, want %d", run, n, files*rows)
		}
		if b := c.partials.Metrics.Bytes.Load(); b > budget || b == 0 {
			t.Errorf("run %d: %d resident bytes, budget %d", run, b, budget)
		}
	}
	m := c.partials.Metrics
	if m.Evictions.Load() == 0 || m.Bypasses.Load() != 0 {
		t.Errorf("evictions %d, bypasses %d: want evictions and every partial admitted", m.Evictions.Load(), m.Bypasses.Load())
	}
}
