package druid

import (
	"bytes"
	"math"
	"testing"

	"prestolite/internal/expr"
)

// FuzzDecodeQuery feeds the broker's query decoder any bytes: they read as
// a query that encodes back to the same bytes, or as an error — never a
// panic, and no list longer than the input.
func FuzzDecodeQuery(f *testing.F) {
	for _, q := range []Query{
		{},
		h2(),
		{Table: "events", Columns: []string{"ts", "country"}, Limit: 10},
		{Table: "events", GroupBy: []string{}, Aggregations: []Aggregation{{Func: "count", Name: "n"}, {Func: "max", Column: "ts", Name: "latest"}}},
		{Table: "events", Filters: []expr.Comparison{
			{Column: "country", Op: expr.OpIn, Values: []any{"us", "de"}},
			{Column: "clicks", Op: expr.OpLt, Values: []any{math.NaN()}},
			{Column: "ok", Op: expr.OpEq, Values: []any{true}},
		}, Limit: -1},
	} {
		f.Add(AppendQuery(nil, q))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, b []byte) {
		q, err := DecodeQuery(b)
		if err != nil {
			return
		}
		if n := len(q.Filters) + len(q.GroupBy) + len(q.Aggregations) + len(q.Columns); n > len(b) {
			t.Fatalf("%d bytes read as %d list entries", len(b), n)
		}
		if again := AppendQuery(nil, q); !bytes.Equal(again, b) {
			t.Fatalf("a query that read does not encode back to itself:\n%x\n%x", b, again)
		}
	})
}
