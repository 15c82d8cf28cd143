package resource

import (
	"errors"
	"io"
	"os"
	"reflect"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/types"
)

func testPage(t *testing.T, rows ...[]any) *block.Page {
	t.Helper()
	pb := block.NewPageBuilder([]*types.Type{types.Bigint, types.Varchar})
	for _, r := range rows {
		pb.AppendRow(r)
	}
	return pb.Build()
}

func TestSpillRunRoundTrip(t *testing.T) {
	m, err := NewSpillManager(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := m.NewRun("sort")
	if err != nil {
		t.Fatal(err)
	}
	p1 := testPage(t, []any{int64(1), "a"}, []any{int64(2), "b"})
	p2 := testPage(t, []any{int64(3), nil})
	if err := w.WritePage(p1); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePage(p2); err != nil {
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if run.pages != 2 || run.Bytes() <= 0 {
		t.Fatalf("run pages=%d bytes=%d", run.pages, run.Bytes())
	}
	if got := m.used.Load(); got != run.Bytes() {
		t.Fatalf("used = %d, want %d", got, run.Bytes())
	}
	if got := m.LiveRuns(); len(got) != 1 {
		t.Fatalf("live runs = %v, want 1", got)
	}

	rr, err := run.Open()
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]any
	for {
		p, err := rr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < p.Count(); i++ {
			rows = append(rows, p.Row(i))
		}
	}
	if err := rr.Close(); err != nil {
		t.Fatal(err)
	}
	want := [][]any{{int64(1), "a"}, {int64(2), "b"}, {int64(3), nil}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}

	run.Remove()
	run.Remove() // idempotent
	if got := m.LiveRuns(); len(got) != 0 {
		t.Fatalf("live runs after remove = %v", got)
	}
	if got := m.used.Load(); got != 0 {
		t.Fatalf("used after remove = %d", got)
	}
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill dir not empty after remove: %v", entries)
	}
}

func TestSpillBudgetExhaustedAbandons(t *testing.T) {
	m, err := NewSpillManager(t.TempDir(), 16) // too small for any page frame
	if err != nil {
		t.Fatal(err)
	}
	w, err := m.NewRun("join-build")
	if err != nil {
		t.Fatal(err)
	}
	err = w.WritePage(testPage(t, []any{int64(1), "payload payload payload"}))
	if !errors.Is(err, ErrSpillBudgetExhausted) {
		t.Fatalf("want ErrSpillBudgetExhausted, got %v", err)
	}
	w.Abandon()
	if got := m.LiveRuns(); len(got) != 0 {
		t.Fatalf("abandoned run still live: %v", got)
	}
	if got := m.used.Load(); got != 0 {
		t.Fatalf("used after abandon = %d", got)
	}
}

func TestSpillRemoveAll(t *testing.T) {
	m, err := NewSpillManager(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w, err := m.NewRun("agg")
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WritePage(testPage(t, []any{int64(i), "x"})); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.LiveRuns(); len(got) != 3 {
		t.Fatalf("live runs = %v, want 3", got)
	}
	m.RemoveAll()
	if got := m.LiveRuns(); len(got) != 0 {
		t.Fatalf("live runs after RemoveAll = %v", got)
	}
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spill dir not empty after RemoveAll: %v", entries)
	}
}
