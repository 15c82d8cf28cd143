package mysqlite

import (
	"reflect"
	"testing"

	"prestolite/internal/expr"
	"prestolite/internal/types"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	_, err := db.CreateTable("users", []Column{
		{Name: "id", Type: types.Bigint},
		{Name: "name", Type: types.Varchar},
		{Name: "grp", Type: types.Varchar},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]any{
		{int64(1), "alice", "adhoc"},
		{int64(2), "bob", "etl"},
		{int64(3), "carol", "adhoc"},
	} {
		if err := db.Insert("users", row); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestInsertAndPKLookup(t *testing.T) {
	db := testDB(t)
	row, ok, err := db.GetByPK("users", int64(2))
	if err != nil || !ok {
		t.Fatalf("GetByPK: %v %v", ok, err)
	}
	if row[1] != "bob" {
		t.Errorf("row = %v", row)
	}
	if err := db.Insert("users", []any{int64(2), "dup", "x"}); err == nil {
		t.Error("duplicate pk accepted")
	}
	if err := db.Insert("users", []any{nil, "nilpk", "x"}); err == nil {
		t.Error("nil pk accepted")
	}
	if err := db.Insert("users", []any{int64(9)}); err == nil {
		t.Error("short row accepted")
	}
}

func TestUpsert(t *testing.T) {
	db := testDB(t)
	if err := db.Upsert("users", []any{int64(2), "bobby", "etl"}); err != nil {
		t.Fatal(err)
	}
	row, _, _ := db.GetByPK("users", int64(2))
	if row[1] != "bobby" {
		t.Errorf("upsert did not replace: %v", row)
	}
	if n, _ := db.Count("users"); n != 3 {
		t.Errorf("count = %d: an upsert of an existing key added a row", n)
	}
	if err := db.Upsert("users", []any{int64(9), "zed", "etl"}); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.Count("users"); n != 4 {
		t.Errorf("count = %d after upserting a new key", n)
	}
}

func TestScan(t *testing.T) {
	db := testDB(t)
	rows, err := db.Scan("users", []expr.Comparison{{Column: "grp", Op: expr.OpEq, Values: []any{"adhoc"}}}, []int{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, [][]any{{"alice"}, {"carol"}}) {
		t.Errorf("rows = %v", rows)
	}
	rows, err = db.Scan("users", nil, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(rows[0]) != 3 {
		t.Errorf("rows = %v", rows)
	}
	// PK point lookup path.
	rows, err = db.Scan("users", []expr.Comparison{{Column: "id", Op: expr.OpEq, Values: []any{int64(3)}}}, nil, 0)
	if err != nil || len(rows) != 1 || rows[0][1] != "carol" {
		t.Errorf("pk scan = %v, %v", rows, err)
	}
	if _, err := db.Scan("users", []expr.Comparison{{Column: "nope", Op: expr.OpEq, Values: []any{int64(1)}}}, nil, 0); err == nil {
		t.Error("bad predicate column accepted")
	}
	if _, err := db.Scan("missing", nil, nil, 0); err == nil {
		t.Error("missing table accepted")
	}
}

func TestPredicateOps(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		p    expr.Comparison
		want int
	}{
		{expr.Comparison{Column: "id", Op: expr.OpGt, Values: []any{int64(1)}}, 2},
		{expr.Comparison{Column: "id", Op: expr.OpLte, Values: []any{int64(2)}}, 2},
		{expr.Comparison{Column: "name", Op: expr.OpIn, Values: []any{"alice", "carol"}}, 2},
		{expr.Comparison{Column: "grp", Op: expr.OpNeq, Values: []any{"etl"}}, 2},
	}
	for _, c := range cases {
		rows, err := db.Scan("users", []expr.Comparison{c.p}, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != c.want {
			t.Errorf("%+v: got %d, want %d", c.p, len(rows), c.want)
		}
	}
}
