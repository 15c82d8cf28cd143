package metastore

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"prestolite/internal/types"
)

func baseStruct() *types.Type {
	return types.NewRow(
		types.Field{Name: "driver_uuid", Type: types.Varchar},
		types.Field{Name: "city_id", Type: types.Bigint},
		types.Field{Name: "status", Type: types.NewRow(
			types.Field{Name: "code", Type: types.Bigint},
		)},
	)
}

func newMS(t *testing.T) *Metastore {
	t.Helper()
	ms := New()
	if _, err := ms.CreateTable("rawdata", "trips", "/warehouse/rawdata/trips",
		[]Column{{Name: "base", Type: baseStruct()}, {Name: "fare", Type: types.Double}},
		[]string{"datestr"}); err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestCreateAndGet(t *testing.T) {
	ms := newMS(t)
	tab, err := ms.GetTable("rawdata", "trips")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Location != "/warehouse/rawdata/trips" || len(tab.Columns) != 2 {
		t.Fatalf("table = %+v", tab)
	}
	if len(tab.Versions) != 1 || tab.Versions[0].Version != 1 {
		t.Errorf("versions = %+v", tab.Versions)
	}
	if _, err := ms.CreateTable("rawdata", "trips", "x", nil, nil); err == nil {
		t.Error("duplicate create accepted")
	}
	if _, err := ms.GetTable("rawdata", "missing"); err == nil {
		t.Error("missing table accepted")
	}
	if got := ms.ListTables("rawdata"); len(got) != 1 || got[0] != "trips" {
		t.Errorf("tables = %v", got)
	}
}

func TestPartitions(t *testing.T) {
	ms := newMS(t)
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(ms.AddPartition("rawdata", "trips", Partition{Name: "datestr=2017-03-02", Location: "/p1", Sealed: false}))
	check(ms.AddPartition("rawdata", "trips", Partition{Name: "datestr=2017-03-01", Location: "/p0", Sealed: true}))
	tab, _ := ms.GetTable("rawdata", "trips")
	parts := tab.Partitions()
	if len(parts) != 2 || parts[0].Name != "datestr=2017-03-01" {
		t.Fatalf("partitions = %v", parts)
	}
	if parts[0].Sealed != true || parts[1].Sealed != false {
		t.Errorf("sealed flags = %v, %v", parts[0].Sealed, parts[1].Sealed)
	}
	if err := ms.AddPartition("rawdata", "missing", Partition{}); err == nil {
		t.Error("partition on missing table accepted")
	}
}

func TestEvolutionAddRemoveFields(t *testing.T) {
	ms := newMS(t)
	// Add a field to the struct and a new top-level column: allowed.
	newBase := types.NewRow(
		types.Field{Name: "driver_uuid", Type: types.Varchar},
		types.Field{Name: "city_id", Type: types.Bigint},
		types.Field{Name: "status", Type: types.NewRow(
			types.Field{Name: "code", Type: types.Bigint},
			types.Field{Name: "reason", Type: types.Varchar}, // added
		)},
		types.Field{Name: "rating", Type: types.Double}, // added
	)
	if err := ms.EvolveTable("rawdata", "trips", []Column{
		{Name: "base", Type: newBase},
		{Name: "fare", Type: types.Double},
		{Name: "tip", Type: types.Double}, // new column
	}); err != nil {
		t.Fatalf("add evolution rejected: %v", err)
	}
	tab, _ := ms.GetTable("rawdata", "trips")
	if len(tab.Versions) != 2 {
		t.Errorf("versions = %d", len(tab.Versions))
	}

	// Remove fields: allowed.
	smaller := types.NewRow(types.Field{Name: "driver_uuid", Type: types.Varchar})
	if err := ms.EvolveTable("rawdata", "trips", []Column{{Name: "base", Type: smaller}}); err != nil {
		t.Fatalf("remove evolution rejected: %v", err)
	}
}

func TestEvolutionRejectsTypeChanges(t *testing.T) {
	ms := newMS(t)
	cases := []Column{
		// primitive type change inside struct
		{Name: "base", Type: types.NewRow(types.Field{Name: "city_id", Type: types.Varchar})},
		// struct replaced by primitive
		{Name: "base", Type: types.Bigint},
		// nested type change
		{Name: "base", Type: types.NewRow(types.Field{Name: "status", Type: types.NewRow(
			types.Field{Name: "code", Type: types.Varchar},
		)})},
	}
	for _, c := range cases {
		err := ms.EvolveTable("rawdata", "trips", []Column{c, {Name: "fare", Type: types.Double}})
		if err == nil {
			t.Errorf("evolution to %s unexpectedly accepted", c.Type)
			continue
		}
		if !strings.Contains(err.Error(), "not allowed") {
			t.Errorf("unexpected error: %v", err)
		}
	}
	// Top-level column type change.
	if err := ms.EvolveTable("rawdata", "trips", []Column{
		{Name: "base", Type: baseStruct()},
		{Name: "fare", Type: types.Varchar},
	}); err == nil {
		t.Error("top-level type change accepted")
	}
}

func TestRenameAlwaysRejected(t *testing.T) {
	ms := newMS(t)
	if err := ms.RenameColumn("rawdata", "trips", "fare", "price"); err == nil {
		t.Error("rename accepted")
	}
}

func TestCheckEvolutionNestedContainers(t *testing.T) {
	arr := types.NewArray(types.NewRow(types.Field{Name: "x", Type: types.Bigint}))
	arr2 := types.NewArray(types.NewRow(
		types.Field{Name: "x", Type: types.Bigint},
		types.Field{Name: "y", Type: types.Varchar},
	))
	if err := CheckEvolution(arr, arr2, "col"); err != nil {
		t.Errorf("array element field add rejected: %v", err)
	}
	badArr := types.NewArray(types.NewRow(types.Field{Name: "x", Type: types.Double}))
	if err := CheckEvolution(arr, badArr, "col"); err == nil {
		t.Error("array element type change accepted")
	}
	m := types.NewMap(types.Varchar, types.NewRow(types.Field{Name: "v", Type: types.Bigint}))
	m2 := types.NewMap(types.Varchar, types.NewRow(types.Field{Name: "v", Type: types.Bigint}, types.Field{Name: "w", Type: types.Bigint}))
	if err := CheckEvolution(m, m2, "col"); err != nil {
		t.Errorf("map value field add rejected: %v", err)
	}
	badKey := types.NewMap(types.Bigint, types.Bigint)
	if err := CheckEvolution(types.NewMap(types.Varchar, types.Bigint), badKey, "col"); err == nil {
		t.Error("map key type change accepted")
	}
}

// TestMetastoreTableIsASnapshot: a table a reader got does not change under
// it; the next GetTable sees the writes.
func TestMetastoreTableIsASnapshot(t *testing.T) {
	ms := newMS(t)
	before, _ := ms.GetTable("rawdata", "trips")
	if err := ms.AddPartition("rawdata", "trips", Partition{Name: "datestr=2017-03-01", Location: "/p0"}); err != nil {
		t.Fatal(err)
	}
	if err := ms.EvolveTable("rawdata", "trips", append(before.Columns[:len(before.Columns):len(before.Columns)], Column{Name: "tip", Type: types.Double})); err != nil {
		t.Fatal(err)
	}
	if n, c := len(before.Partitions()), len(before.Columns); n != 0 || c != 2 {
		t.Errorf("the snapshot moved: %d partitions, %d columns", n, c)
	}
	after, _ := ms.GetTable("rawdata", "trips")
	if n, c := len(after.Partitions()), len(after.Columns); n != 1 || c != 3 {
		t.Errorf("the writes are not visible: %d partitions, %d columns", n, c)
	}
}

// TestMetastoreConcurrentWritersAndReaders runs AddPartition and EvolveTable
// against readers of Partitions and Columns; under -race any shared write
// is reported. Every snapshot a reader sees is sorted and only grows.
func TestMetastoreConcurrentWritersAndReaders(t *testing.T) {
	ms := newMS(t)
	const writes = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < writes; i++ {
			if err := ms.AddPartition("rawdata", "trips", Partition{Name: fmt.Sprintf("datestr=%04d", i), Location: fmt.Sprintf("/p%d", i)}); err != nil {
				t.Error(err)
				return
			}
			if i%20 == 0 {
				tab, _ := ms.GetTable("rawdata", "trips")
				cols := append(tab.Columns[:len(tab.Columns):len(tab.Columns)], Column{Name: fmt.Sprintf("c%d", i), Type: types.Bigint})
				if err := ms.EvolveTable("rawdata", "trips", cols); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen, cols := 0, 0
			for {
				select {
				case <-done:
					return
				default:
				}
				tab, err := ms.GetTable("rawdata", "trips")
				if err != nil {
					t.Error(err)
					return
				}
				parts := tab.Partitions()
				for i := 1; i < len(parts); i++ {
					if parts[i-1].Name >= parts[i].Name {
						t.Errorf("partitions out of order: %s, %s", parts[i-1].Name, parts[i].Name)
						return
					}
				}
				if len(parts) < seen || len(tab.Columns) < cols {
					t.Errorf("a later snapshot shrank: %d partitions after %d, %d columns after %d", len(parts), seen, len(tab.Columns), cols)
					return
				}
				seen, cols = len(parts), len(tab.Columns)
			}
		}()
	}
	wg.Wait()
	tab, _ := ms.GetTable("rawdata", "trips")
	if n := len(tab.Partitions()); n != writes {
		t.Errorf("partitions = %d, want %d", n, writes)
	}
}

// TestMetastorePartitionVersions: a partition carries the table version it
// was registered at, registering it again — a seal, a rewrite — gives it a
// new one, and the table knows whether any partition is still open.
func TestMetastorePartitionVersions(t *testing.T) {
	ms := newMS(t)
	add := func(name string, sealed bool) *Table {
		t.Helper()
		if err := ms.AddPartition("rawdata", "trips", Partition{Name: name, Location: "/" + name, Sealed: sealed}); err != nil {
			t.Fatal(err)
		}
		tab, _ := ms.GetTable("rawdata", "trips")
		return tab
	}
	tab := add("datestr=b", false)
	if !tab.HasOpenPartition() || tab.Version() != 1 || tab.Partitions()[0].Version != 1 {
		t.Fatalf("after an open add: open=%v version=%d partition=%+v", tab.HasOpenPartition(), tab.Version(), tab.Partitions()[0])
	}
	tab = add("datestr=a", true)
	if !tab.HasOpenPartition() || tab.Partitions()[0].Version != 2 || tab.Partitions()[1].Version != 1 {
		t.Fatalf("after a sealed add: %+v %+v", tab.Partitions()[0], tab.Partitions()[1])
	}
	tab = add("datestr=b", true) // the open partition is sealed
	if tab.HasOpenPartition() || len(tab.Partitions()) != 2 || tab.Partitions()[1].Version != 3 || tab.Version() != 3 {
		t.Fatalf("after sealing: open=%v version=%d partitions=%+v %+v", tab.HasOpenPartition(), tab.Version(), tab.Partitions()[0], tab.Partitions()[1])
	}
}
