package memory

import (
	"errors"
	"io"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/connector"
	"prestolite/internal/expr"
	"prestolite/internal/types"
)

func newConn(t *testing.T) *Connector {
	t.Helper()
	c := New("memory")
	cols := []connector.Column{
		{Name: "id", Type: types.Bigint},
		{Name: "name", Type: types.Varchar},
	}
	if err := c.CreateTable("s", "t", cols, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendRows("s", "t", [][]any{
		{int64(1), "a"}, {int64(2), "b"}, {int64(3), "c"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendRows("s", "t", [][]any{{int64(4), "d"}}); err != nil {
		t.Fatal(err)
	}
	return c
}

func drain(t *testing.T, src connector.PageSource) [][]any {
	t.Helper()
	var rows [][]any
	for {
		p, err := src.Next()
		if errors.Is(err, io.EOF) {
			return rows
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < p.Count(); i++ {
			rows = append(rows, p.Row(i))
		}
	}
}

func TestMetadataAndSplits(t *testing.T) {
	c := newConn(t)
	tables, _ := c.Metadata().ListTables("s")
	if len(tables) != 1 || tables[0] != "t" {
		t.Fatalf("tables = %v", tables)
	}
	ts, handle, err := c.Metadata().GetTable("s", "t")
	if err != nil || len(ts.Columns) != 2 {
		t.Fatalf("table = %v, %v", ts, err)
	}
	splits, err := c.SplitManager().Splits(handle)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 2 { // one per page
		t.Fatalf("splits = %d", len(splits))
	}
	var rows [][]any
	for _, sp := range splits {
		src, err := c.RecordSetProvider().CreatePageSource(handle, sp, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, drain(t, src)...)
	}
	if len(rows) != 4 || rows[3][1] != "d" {
		t.Fatalf("rows = %v", rows)
	}
	if _, _, err := c.Metadata().GetTable("s", "missing"); err == nil {
		t.Error("missing table accepted")
	}
	if _, err := c.Metadata().ListTables("missing"); err == nil {
		t.Error("missing schema accepted")
	}
}

func TestPushdownsApplyInSource(t *testing.T) {
	c := newConn(t)
	_, handle, _ := c.Metadata().GetTable("s", "t")

	pred := expr.MustCall("gte", expr.NewVariable("id", 0, types.Bigint), expr.NewConstant(int64(3), types.Bigint))
	h2, residual, pushed := c.PushFilter(handle, pred)
	if !pushed || residual != nil {
		t.Fatalf("filter pushdown: pushed=%v residual=%v", pushed, residual)
	}
	h3, pushed := c.PushProjection(h2, []int{1})
	if !pushed {
		t.Fatal("projection pushdown failed")
	}
	h4, guaranteed, pushed := c.PushLimit(h3, 1)
	if !pushed || guaranteed {
		t.Fatalf("limit pushdown: pushed=%v guaranteed=%v", pushed, guaranteed)
	}
	splits, _ := c.SplitManager().Splits(h4)
	var rows [][]any
	for _, sp := range splits {
		src, err := c.RecordSetProvider().CreatePageSource(h4, sp, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, drain(t, src)...)
	}
	// Per-split limit 1: first page contributes "c" (id=3), second "d".
	if len(rows) != 2 || rows[0][0] != "c" || rows[1][0] != "d" {
		t.Fatalf("rows = %v", rows)
	}
	if h4.Description() == "" {
		t.Error("handle description empty")
	}
}

func TestCreateTableValidation(t *testing.T) {
	c := New("m")
	cols := []connector.Column{{Name: "a", Type: types.Bigint}}
	bad := block.NewPage(block.FromValues(types.Bigint, int64(1)), block.FromValues(types.Bigint, int64(2)))
	if err := c.CreateTable("s", "bad", cols, []*block.Page{bad}); err == nil {
		t.Error("mismatched page accepted")
	}
	if err := c.AppendRows("s", "missing", nil); err == nil {
		t.Error("append to missing table accepted")
	}
}
