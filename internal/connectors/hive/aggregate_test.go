package hive

import (
	"strings"
	"testing"

	"prestolite/internal/connector"
	"prestolite/internal/frame"
	"prestolite/internal/types"
)

// What the connector absorbs: a global count, min or max over a top-level
// data column whose statistics prove its answer.
func TestPushAggregationTakesWhatFootersAnswer(t *testing.T) {
	_, conn, _ := newWarehouse(t, Options{}) // base ROW, fare double, datestr partition key
	_, handle, err := conn.Metadata().GetTable("rawdata", "trips")
	if err != nil {
		t.Fatal(err)
	}
	count := connector.AggregateSpec{Function: "count", ArgColumn: -1, OutputType: types.Bigint}
	h, perSplit, ok := conn.PushAggregation(handle, []connector.AggregateSpec{count}, nil)
	if !ok || !perSplit || !strings.Contains(h.Description(), "aggregates=[count(*)]") {
		t.Fatalf("count(*) not absorbed per split: %v %v %s", ok, perSplit, h.Description())
	}
	limited, _, _ := conn.PushLimit(handle, 3)
	legacy := New("hive", conn.ms, conn.fs, Options{UseLegacyReader: true})
	one := func(fn string, col int) []connector.AggregateSpec {
		return []connector.AggregateSpec{{Function: fn, ArgColumn: col}}
	}
	for name, tc := range map[string]struct {
		conn    *Connector
		handle  connector.TableHandle
		aggs    []connector.AggregateSpec
		groupBy []int
	}{
		"grouped":    {conn, handle, one("count", -1), []int{2}},
		"limited":    {conn, limited, one("count", -1), nil},
		"legacy":     {legacy, handle, one("count", -1), nil},
		"twice":      {conn, h, one("count", -1), nil},
		"sum":        {conn, handle, one("sum", 1), nil},
		"double min": {conn, handle, one("min", 1), nil},
		"struct max": {conn, handle, one("max", 0), nil},
		"partition":  {conn, handle, one("count", 2), nil},
	} {
		if _, _, ok := tc.conn.PushAggregation(tc.handle, tc.aggs, tc.groupBy); ok {
			t.Errorf("%s: absorbed", name)
		}
	}
	if _, _, ok := conn.PushFilter(h, nil); ok {
		t.Error("a filter was pushed under an absorbed aggregate")
	}
}

// A handle off the wire is checked where it is used: an aggregate no footer
// answers, an ordinal outside the table or a column beyond the aggregates
// fails the split with an error, not a panic.
func TestAggregateHandleIsCheckedAtCreatePageSource(t *testing.T) {
	_, conn, _ := newWarehouse(t, Options{})
	for name, tc := range map[string]struct {
		aggs    []Aggregate
		columns []int
	}{
		"unknown function": {[]Aggregate{{Func: "median", Column: -1}}, []int{0}},
		"sum":              {[]Aggregate{{Func: "sum", Column: 1}}, []int{0}},
		"ordinal":          {[]Aggregate{{Func: "max", Column: 99}}, []int{0}},
		"negative":         {[]Aggregate{{Func: "min", Column: -5}}, []int{0}},
		"partition key":    {[]Aggregate{{Func: "count", Column: 2}}, []int{0}},
		"double":           {[]Aggregate{{Func: "max", Column: 1}}, []int{0}},
		"column":           {[]Aggregate{{Func: "count", Column: -1}}, []int{1}},
	} {
		h := &TableHandle{Schema: "rawdata", Table: "trips", Limit: -1, Aggs: tc.aggs}
		splits, err := conn.SplitManager().Splits(h)
		if err != nil || len(splits) == 0 {
			t.Fatalf("%s: %d splits, %v", name, len(splits), err)
		}
		if src, err := conn.RecordSetProvider().CreatePageSource(h, splits[0], tc.columns); err == nil {
			_ = src.Close()
			t.Errorf("%s: read", name)
		}
	}
}

// readHandle checks the aggregate count against the bytes left before it
// allocates, and a truncated aggregate is an error.
func TestAggregateHandleWireIsBounded(t *testing.T) {
	h := &TableHandle{Schema: "rawdata", Table: "trips", Limit: -1}
	data := h.AppendWire(nil)
	huge := frame.AppendUvarint(data[:len(data)-1], 1<<40) // the count of no aggregate, replaced
	truncated := (&TableHandle{Schema: "rawdata", Table: "trips", Limit: -1, Aggs: []Aggregate{{Func: "count", Column: -1}}}).AppendWire(nil)
	truncated = truncated[:len(truncated)-2]
	for name, b := range map[string][]byte{"huge count": huge, "truncated": truncated} {
		r := frame.NewReader(b)
		if back := readHandle(r); r.Close() == nil {
			t.Errorf("%s: read as %+v", name, back)
		}
	}
}
