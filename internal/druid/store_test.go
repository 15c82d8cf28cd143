package druid

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/expr"
	"prestolite/internal/types"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	tab, err := s.CreateTable("events", []Column{
		{Name: "country", Type: types.Varchar},
		{Name: "device", Type: types.Varchar},
		{Name: "clicks", Type: types.Bigint},
		{Name: "revenue", Type: types.Double},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Ingest([][]any{
		{"us", "ios", int64(10), 1.5},
		{"us", "android", int64(20), 2.5},
		{"de", "ios", int64(5), 0.5},
		{nil, "web", int64(1), 0.1},
	}); err != nil {
		t.Fatal(err)
	}
	// Second segment (real-time ingestion appends segments).
	if err := tab.Ingest([][]any{
		{"us", "ios", int64(7), 0.9},
		{"jp", "android", int64(3), 0.3},
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSelectWithInvertedIndex(t *testing.T) {
	s := testStore(t)
	res, err := s.Execute(Query{
		Table:   "events",
		Filters: []expr.Comparison{{Column: "country", Op: expr.OpEq, Values: []any{"us"}}},
		Columns: []string{"device", "clicks"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0] != "ios" || rows[0][1] != int64(10) {
		t.Errorf("rows = %v", rows)
	}
}

func TestFilterOps(t *testing.T) {
	s := testStore(t)
	cases := []struct {
		f    expr.Comparison
		want int
	}{
		{expr.Comparison{Column: "clicks", Op: expr.OpGt, Values: []any{int64(5)}}, 3},
		{expr.Comparison{Column: "clicks", Op: expr.OpLte, Values: []any{int64(5)}}, 3},
		{expr.Comparison{Column: "country", Op: expr.OpIn, Values: []any{"de", "jp"}}, 2},
		{expr.Comparison{Column: "country", Op: expr.OpNeq, Values: []any{"us"}}, 2}, // null country never matches
		{expr.Comparison{Column: "revenue", Op: expr.OpGte, Values: []any{1.5}}, 2},
	}
	for _, c := range cases {
		res, err := s.Execute(Query{Table: "events", Filters: []expr.Comparison{c.f}, Columns: []string{"clicks"}})
		if err != nil {
			t.Fatalf("%+v: %v", c.f, err)
		}
		if got := len(res.Rows()); got != c.want {
			t.Errorf("filter %+v: got %d rows, want %d", c.f, got, c.want)
		}
	}
}

func TestGroupByAggregation(t *testing.T) {
	s := testStore(t)
	res, err := s.Execute(Query{
		Table:        "events",
		GroupBy:      []string{"country"},
		Aggregations: []Aggregation{{Func: "sum", Column: "clicks", Name: "total"}, {Func: "count", Name: "n"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[any][]any{}
	for _, r := range res.Rows() {
		got[r[0]] = r[1:]
	}
	if !reflect.DeepEqual(got["us"], []any{int64(37), int64(3)}) {
		t.Errorf("us = %v", got["us"])
	}
	if !reflect.DeepEqual(got["de"], []any{int64(5), int64(1)}) {
		t.Errorf("de = %v", got["de"])
	}
	if !reflect.DeepEqual(got[nil], []any{int64(1), int64(1)}) {
		t.Errorf("null group = %v", got[nil])
	}
}

func TestGlobalAggregationAndLimit(t *testing.T) {
	s := testStore(t)
	res, err := s.Execute(Query{
		Table:        "events",
		Filters:      []expr.Comparison{{Column: "device", Op: expr.OpEq, Values: []any{"ios"}}},
		Aggregations: []Aggregation{{Func: "sum", Column: "revenue", Name: "rev"}, {Func: "avg", Column: "clicks", Name: "ac"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	rev := rows[0][0].(float64)
	if rev < 2.89 || rev > 2.91 {
		t.Errorf("rev = %v", rev)
	}

	limited, err := s.Execute(Query{Table: "events", Columns: []string{"device"}, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rows := limited.Rows(); len(rows) != 2 {
		t.Errorf("limit rows = %v", rows)
	}
}

func TestStoreErrors(t *testing.T) {
	s := testStore(t)
	if _, err := s.Execute(Query{Table: "missing"}); err == nil {
		t.Error("missing table accepted")
	}
	if _, err := s.Execute(Query{Table: "events", Filters: []expr.Comparison{{Column: "nope", Op: expr.OpEq, Values: []any{int64(1)}}}}); err == nil {
		t.Error("bad filter column accepted")
	}
	if _, err := s.Execute(Query{Table: "events", Columns: []string{"nope"}}); err == nil {
		t.Error("bad select column accepted")
	}
	if _, err := s.Execute(Query{Table: "events", Aggregations: []Aggregation{{Func: "sum", Column: "nope"}}}); err == nil {
		t.Error("bad agg column accepted")
	}
	if _, err := s.CreateTable("events", nil); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := s.CreateTable("bad", []Column{{Name: "x", Type: types.NewArray(types.Bigint)}}); err == nil {
		t.Error("array column accepted")
	}
}

func TestHTTPServerRoundTrip(t *testing.T) {
	s := testStore(t)
	srv := NewServer(s)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := NewHTTPClient(srv.Addr())
	tables, err := client.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0] != "events" {
		t.Fatalf("tables = %v", tables)
	}
	cols, err := client.Schema("events")
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 4 || cols[0].Name != "country" || cols[2].Type != types.Bigint {
		t.Fatalf("schema = %v", cols)
	}
	res, err := client.Execute(Query{
		Table:        "events",
		Filters:      []expr.Comparison{{Column: "country", Op: expr.OpEq, Values: []any{"us"}}},
		GroupBy:      []string{"device"},
		Aggregations: []Aggregation{{Func: "sum", Column: "clicks", Name: "c"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows := res.Rows(); len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	// A select's string column crosses the wire as the dictionary block the
	// store wrapped, not as flattened strings.
	res, err = client.Execute(Query{Table: "events", Columns: []string{"country", "clicks"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pages) != 1 {
		t.Fatalf("pages = %d, want the one open segment's", len(res.Pages))
	}
	if _, ok := res.Pages[0].Blocks[0].(*block.DictionaryBlock); !ok {
		t.Errorf("country arrived as %T, want a dictionary block", res.Pages[0].Blocks[0])
	}
	if want, _ := s.Execute(Query{Table: "events", Columns: []string{"country", "clicks"}}); !reflect.DeepEqual(res.Rows(), want.Rows()) {
		t.Errorf("over HTTP: %v\nembedded:  %v", res.Rows(), want.Rows())
	}
	if _, err := client.Schema("missing"); err == nil {
		t.Error("missing table schema accepted")
	}
	if _, err := client.Execute(Query{Table: "missing"}); err == nil {
		t.Error("missing table query accepted")
	}
	// A table name is data, not query-string syntax: one with '&', '=' or a
	// space in it asks for that table and no other.
	for _, name := range []string{"a&table=events", "a b", "a+b%26"} {
		if _, err := s.CreateTable(name, []Column{{Name: "only_" + name[:1], Type: types.Double}}); err != nil {
			t.Fatal(err)
		}
		cols, err := client.Schema(name)
		if err != nil {
			t.Errorf("schema of %q: %v", name, err)
			continue
		}
		if len(cols) != 1 || cols[0].Type != types.Double {
			t.Errorf("schema of %q = %v: another table's", name, cols)
		}
	}
}

// encodedResult is the body the broker answers res with.
func encodedResult(t *testing.T, res *Result) []byte {
	t.Helper()
	env, err := encodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if _, err := env.WriteTo(&body); err != nil {
		t.Fatal(err)
	}
	return body.Bytes()
}

// TestHTTPClientRejectsDamagedResults: the client decodes frames it did not
// write. A damaged response is an error naming the broker — never a panic,
// never a shorter result.
func TestHTTPClientRejectsDamagedResults(t *testing.T) {
	good, err := testStore(t).Execute(Query{Table: "events", Columns: []string{"country", "clicks"}})
	if err != nil {
		t.Fatal(err)
	}
	body := encodedResult(t, good)
	// A header that announces the page twice, followed by the page once.
	frame, err := block.EncodePage(good.Pages[0])
	if err != nil {
		t.Fatal(err)
	}
	twice := encodedResult(t, &Result{Columns: good.Columns, Pages: []*block.Page{good.Pages[0], good.Pages[0]}})
	flip := func(i int) []byte {
		out := append([]byte(nil), body...)
		out[i] ^= 0x40
		return out
	}
	for name, damaged := range map[string][]byte{
		"empty":                      {},
		"truncated in the header":    body[:5],
		"truncated in a frame":       body[:len(body)-3],
		"flipped byte in a frame":    flip(len(body) - 9),
		"flipped byte in the header": flip(9),
		"more frames promised":       twice[:len(twice)-len(frame)],
		"trailing bytes":             append(append([]byte(nil), body...), 0),
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { _, _ = w.Write(damaged) }))
		client := &HTTPClient{BaseURL: srv.URL, HTTP: srv.Client()}
		res, err := client.Execute(Query{Table: "events"})
		srv.Close()
		if err == nil {
			t.Errorf("%s: accepted, %d rows", name, len(res.Rows()))
		} else if !strings.Contains(err.Error(), "broker "+srv.URL) {
			t.Errorf("%s: the error does not name the broker: %v", name, err)
		}
	}
}

// TestHTTPServerBoundsQueryBody: the broker reads a bounded request, and
// answers one that is no query's encoding with a 400.
func TestHTTPServerBoundsQueryBody(t *testing.T) {
	srv := NewServer(testStore(t))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	huge := Query{Table: "events", Columns: []string{strings.Repeat("x", maxQueryBytes)}}
	resp, err := http.Post("http://"+srv.Addr()+"/druid/v2/query", "application/octet-stream", bytes.NewReader(AppendQuery(nil, huge)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("a %d-byte query answered %s, want 413", maxQueryBytes, resp.Status)
	}
	malformed := append(AppendQuery(nil, Query{Table: "events"}), 0)
	resp, err = http.Post("http://"+srv.Addr()+"/druid/v2/query", "application/octet-stream", bytes.NewReader(malformed))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("a query with a trailing byte answered %s, want 400", resp.Status)
	}
}

func TestBitmap(t *testing.T) {
	b := NewBitmap(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if b.Count() != 3 {
		t.Errorf("count = %d", b.Count())
	}
	c := NewBitmap(130)
	c.Set(64)
	c.Set(100)
	c.Or(b)
	if c.Count() != 4 {
		t.Error("or wrong")
	}
	var seen []int
	b.ForEach(func(i int) bool { seen = append(seen, i); return true })
	if !reflect.DeepEqual(seen, []int{0, 64, 129}) {
		t.Errorf("foreach = %v", seen)
	}
	var first []int
	b.ForEach(func(i int) bool { first = append(first, i); return false })
	if len(first) != 1 {
		t.Errorf("early stop = %v", first)
	}
}

// Rows boxes a result row by row; production code reads Pages.
func (r *Result) Rows() [][]any {
	var rows [][]any
	for _, p := range r.Pages {
		for i := 0; i < p.Count(); i++ {
			rows = append(rows, p.Row(i))
		}
	}
	return rows
}

// endless is a body that never ends, counting what is read from it.
type endless struct{ read int64 }

func (e *endless) Read(p []byte) (int, error) {
	e.read += int64(len(p))
	return len(p), nil
}

// TestBrokerAnswerIsBounded: a broker whose answer to a query runs past
// maxAnswerBytes gets an error that names it and the cap. An answer that
// announces cap+1 bytes is refused before its body is read, so the client
// allocates next to nothing of it; one that does not announce its length is
// read to cap+1 bytes and no further.
func TestBrokerAnswerIsBounded(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(maxAnswerBytes+1))
		chunk := make([]byte, 64<<10)
		for left := maxAnswerBytes + 1; left > 0; left -= len(chunk) {
			if _, err := w.Write(chunk[:min(left, len(chunk))]); err != nil {
				return // the client stopped reading, as it should
			}
		}
	}))
	defer srv.Close()
	client := &HTTPClient{BaseURL: srv.URL, HTTP: srv.Client()}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := client.Execute(Query{Table: "events"})
	runtime.ReadMemStats(&after)
	var tooLarge *AnswerTooLargeError
	if !errors.As(err, &tooLarge) || tooLarge.Broker != srv.URL || tooLarge.Cap != maxAnswerBytes {
		t.Fatalf("a %d-byte answer: err = %v", maxAnswerBytes+1, err)
	}
	if !strings.Contains(err.Error(), srv.URL) || !strings.Contains(err.Error(), strconv.Itoa(maxAnswerBytes)) {
		t.Errorf("the error does not name the broker and the cap: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Errorf("refusing a %d-byte answer allocated %d bytes", maxAnswerBytes+1, grew)
	}

	const limit = 1 << 10
	body := &endless{}
	_, err = readAnswer(&http.Response{ContentLength: -1, Body: io.NopCloser(body)}, "b", limit)
	if !errors.As(err, &tooLarge) || tooLarge.Cap != limit {
		t.Fatalf("an endless unannounced answer: err = %v", err)
	}
	if body.read != limit+1 {
		t.Errorf("read %d bytes of an endless answer, want %d", body.read, limit+1)
	}
}
