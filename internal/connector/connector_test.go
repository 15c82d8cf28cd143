package connector

import (
	"errors"
	"io"
	"reflect"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/types"
)

type stubConnector struct{ name string }

func (s *stubConnector) Name() string                         { return s.name }
func (s *stubConnector) Metadata() Metadata                   { return nil }
func (s *stubConnector) SplitManager() SplitManager           { return nil }
func (s *stubConnector) RecordSetProvider() RecordSetProvider { return nil }

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Register("hive", &stubConnector{name: "hive"})
	r.Register("druid", &stubConnector{name: "druid"})
	c, err := r.Get("hive")
	if err != nil || c.Name() != "hive" {
		t.Fatalf("get = %v, %v", c, err)
	}
	if _, err := r.Get("missing"); err == nil {
		t.Error("missing catalog accepted")
	}
	if got := r.Catalogs(); !reflect.DeepEqual(got, []string{"druid", "hive"}) {
		t.Errorf("catalogs = %v", got)
	}
}

func TestTableSchemaColumnIndex(t *testing.T) {
	ts := &TableSchema{Columns: []Column{{Name: "a", Type: types.Bigint}, {Name: "b", Type: types.Varchar}}}
	if ts.ColumnIndex("b") != 1 || ts.ColumnIndex("zzz") != -1 {
		t.Error("ColumnIndex wrong")
	}
}

func TestSlicePageSource(t *testing.T) {
	p := block.NewPage(&block.Int64Block{Values: []int64{1, 2}})
	src := &SlicePageSource{Pages: []*block.Page{p}}
	got, err := src.Next()
	if err != nil || got.Count() != 2 {
		t.Fatalf("next = %v, %v", got, err)
	}
	if _, err := src.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("expected EOF, got %v", err)
	}
	if err := src.Close(); err != nil {
		t.Error(err)
	}
}
