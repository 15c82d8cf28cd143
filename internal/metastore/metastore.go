// Package metastore implements the schema service of §V.A: "schemas are
// managed as a service outside of Presto, which tracks different versions of
// schemas, enforces schema evolution rules, and guarantees schema matching".
//
// Evolution rules (company-wide, per the paper):
//   - adding new fields to an existing struct is allowed (old data reads
//     NULL for the new field);
//   - removing existing fields is allowed (data still ingested into the
//     removed field is ignored);
//   - field rename and type change are NOT allowed.
package metastore

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"prestolite/internal/types"
)

// Column is a named, typed table column.
type Column struct {
	Name string
	Type *types.Type
}

// Partition is one directory of files, keyed like "datestr=2017-03-02".
type Partition struct {
	Name string
	// Location is the directory holding the partition's files.
	Location string
	// Sealed marks immutable partitions; open partitions receive
	// near-real-time ingestion and bypass the file list cache (§VII.A).
	Sealed bool
	// Version is the table version the partition was registered at. A
	// partition registered again — rewritten by a loader, or sealed — gets a
	// new one, so a listing cached under the old version is not addressed.
	Version int64
}

// TableVersion is one historical schema.
type TableVersion struct {
	Version int
	Columns []Column
}

// Table is a registered table. A *Table the metastore hands out is a
// snapshot that never changes: every write builds a new value and swaps it
// in, so a reader iterates its partitions and columns without a lock.
type Table struct {
	Schema        string
	Name          string
	Columns       []Column
	PartitionKeys []string // appended as virtual varchar columns
	Location      string
	Versions      []TableVersion

	partitions []*Partition // sorted by name
	// version counts every mutation to the table's data layout: partitions
	// added or sealed, schema evolved.
	version int64
	open    int // partitions not sealed
}

// Partitions returns the partitions sorted by name. The slice and the
// partitions are shared by every reader of this snapshot: read-only.
func (t *Table) Partitions() []*Partition { return t.partitions }

// Version is the table's change version: 0 for a freshly created table,
// bumped on every partition add or seal and every schema evolution.
func (t *Table) Version() int64 { return t.version }

// HasOpenPartition reports whether any partition is unsealed, that is,
// whether files may land in the table without the metastore hearing of it.
func (t *Table) HasOpenPartition() bool { return t.open > 0 }

// Metastore is the in-process schema service.
type Metastore struct {
	mu     sync.RWMutex
	tables map[string]*Table // "schema.table"
}

// New creates an empty metastore.
func New() *Metastore {
	return &Metastore{tables: map[string]*Table{}}
}

func key(schema, table string) string { return schema + "." + table }

// CreateTable registers a table.
func (m *Metastore) CreateTable(schema, name, location string, columns []Column, partitionKeys []string) (*Table, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := key(schema, name)
	if _, exists := m.tables[k]; exists {
		return nil, fmt.Errorf("metastore: table %s already exists", k)
	}
	t := &Table{
		Schema:        schema,
		Name:          name,
		Columns:       columns,
		PartitionKeys: partitionKeys,
		Location:      location,
		Versions:      []TableVersion{{Version: 1, Columns: columns}},
	}
	m.tables[k] = t
	return t, nil
}

// GetTable resolves a table.
func (m *Metastore) GetTable(schema, name string) (*Table, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.tables[key(schema, name)]
	if !ok {
		return nil, fmt.Errorf("metastore: table %s.%s does not exist", schema, name)
	}
	return t, nil
}

// ListTables lists table names in a schema, sorted.
func (m *Metastore) ListTables(schema string) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	for _, t := range m.tables {
		if t.Schema == schema {
			out = append(out, t.Name)
		}
	}
	sort.Strings(out)
	return out
}

// update swaps in a new snapshot of a table, built by edit from a copy of
// the current one.
func (m *Metastore) update(schema, table string, edit func(t *Table) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := key(schema, table)
	old, ok := m.tables[k]
	if !ok {
		return fmt.Errorf("metastore: table %s.%s does not exist", schema, table)
	}
	t := *old
	t.version++
	if err := edit(&t); err != nil {
		return err
	}
	m.tables[k] = &t
	return nil
}

// AddPartition registers a partition directory, or registers it again: a
// partition of the same name is replaced.
func (m *Metastore) AddPartition(schema, table string, p Partition) error {
	return m.update(schema, table, func(t *Table) error {
		p.Version = t.version
		i, found := sort.Find(len(t.partitions), func(i int) int { return strings.Compare(p.Name, t.partitions[i].Name) })
		parts := make([]*Partition, 0, len(t.partitions)+1)
		parts = append(append(parts, t.partitions[:i]...), &p)
		if found {
			if !t.partitions[i].Sealed {
				t.open--
			}
			i++
		}
		t.partitions = append(parts, t.partitions[i:]...)
		if !p.Sealed {
			t.open++
		}
		return nil
	})
}

// EvolveTable applies a schema change, enforcing the evolution rules. On
// success a new version is recorded.
func (m *Metastore) EvolveTable(schema, table string, newColumns []Column) error {
	return m.update(schema, table, func(t *Table) error {
		oldByName := map[string]*types.Type{}
		for _, c := range t.Columns {
			oldByName[strings.ToLower(c.Name)] = c.Type
		}
		for _, c := range newColumns {
			if old, exists := oldByName[strings.ToLower(c.Name)]; exists {
				if err := CheckEvolution(old, c.Type, c.Name); err != nil {
					return err
				}
			}
		}
		t.Columns = newColumns
		t.Versions = append(t.Versions[:len(t.Versions):len(t.Versions)], TableVersion{Version: len(t.Versions) + 1, Columns: newColumns})
		return nil
	})
}

// RenameColumn always fails: "field rename ... not allowed. Field name is
// used to identify metastore schema and Parquet file schema" (§V.A).
func (m *Metastore) RenameColumn(schema, table, oldName, newName string) error {
	return fmt.Errorf("metastore: renaming %s to %s is not allowed: field name identifies the column in both metastore and file schemas", oldName, newName)
}

// CheckEvolution validates old → new for one column at path. Struct fields
// may be added or removed; same-named fields must keep their exact type
// ("Presto is type strict, we do not allow automatic type coercion").
func CheckEvolution(old, new *types.Type, path string) error {
	if old.Kind != new.Kind {
		return fmt.Errorf("metastore: type change at %s (%s -> %s) is not allowed", path, old, new)
	}
	switch old.Kind {
	case types.KindRow:
		oldFields := map[string]*types.Type{}
		for _, f := range old.Fields {
			oldFields[strings.ToLower(f.Name)] = f.Type
		}
		for _, f := range new.Fields {
			if oldType, exists := oldFields[strings.ToLower(f.Name)]; exists {
				if err := CheckEvolution(oldType, f.Type, path+"."+f.Name); err != nil {
					return err
				}
			}
			// Added fields are fine: old data reads NULL.
		}
		// Removed fields are fine: ingested data for them is ignored.
		return nil
	case types.KindArray:
		return CheckEvolution(old.Elem, new.Elem, path+".element")
	case types.KindMap:
		if err := CheckEvolution(old.Key, new.Key, path+".key"); err != nil {
			return err
		}
		return CheckEvolution(old.Value, new.Value, path+".value")
	default:
		if !old.Equals(new) {
			return fmt.Errorf("metastore: type change at %s (%s -> %s) is not allowed", path, old, new)
		}
		return nil
	}
}
