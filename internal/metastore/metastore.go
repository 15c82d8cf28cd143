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
}

// TableVersion is one historical schema.
type TableVersion struct {
	Version int
	Columns []Column
}

// Table is a registered table.
type Table struct {
	Schema        string
	Name          string
	Columns       []Column
	PartitionKeys []string // appended as virtual varchar columns
	Location      string
	Versions      []TableVersion

	partitions map[string]*Partition
	// changeVersion counts every mutation to the table's data layout:
	// partitions added or sealed, schema evolved. It is the snapshot version
	// stamped into result-cache keys (§VII): any bump makes old keys
	// unreachable, which is how cached query results are invalidated without
	// a scan of the cache.
	changeVersion int64
}

// Partitions returns partitions sorted by name.
func (t *Table) Partitions() []*Partition {
	out := make([]*Partition, 0, len(t.partitions))
	for _, p := range t.partitions {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Change describes one table mutation, delivered to OnChange listeners.
// Caches key invalidation off Location: for partition events it is the
// partition directory, for schema events the table directory.
type Change struct {
	Schema   string
	Table    string
	Kind     ChangeKind
	Location string
	// Version is the table's change version after the mutation.
	Version int64
}

// ChangeKind enumerates table mutations.
type ChangeKind int

const (
	// ChangePartitionAdded fires when a partition directory is registered.
	ChangePartitionAdded ChangeKind = iota
	// ChangeSchemaEvolved fires when EvolveTable records a new version.
	ChangeSchemaEvolved
)

// Metastore is the in-process schema service.
type Metastore struct {
	mu        sync.RWMutex
	tables    map[string]*Table // "schema.table"
	listeners []func(Change)
}

// New creates an empty metastore.
func New() *Metastore {
	return &Metastore{tables: map[string]*Table{}}
}

// OnChange registers a listener invoked after every table mutation.
// Listeners run synchronously, outside the metastore lock, in registration
// order; connectors subscribe their cache invalidation here.
func (m *Metastore) OnChange(fn func(Change)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.listeners = append(m.listeners, fn)
}

// notify delivers ch to listeners. Callers must NOT hold m.mu.
func (m *Metastore) notify(ch Change) {
	m.mu.RLock()
	fns := m.listeners
	m.mu.RUnlock()
	for _, fn := range fns {
		fn(ch)
	}
}

// TableVersion returns the current change version of a table: 0 for a
// freshly created table, bumped on every partition add/seal and schema
// evolution. ok is false when the table does not exist.
func (m *Metastore) TableVersion(schema, table string) (int64, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	t, ok := m.tables[key(schema, table)]
	if !ok {
		return 0, false
	}
	return t.changeVersion, true
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
		partitions:    map[string]*Partition{},
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

// AddPartition registers a partition directory.
func (m *Metastore) AddPartition(schema, table string, p Partition) error {
	m.mu.Lock()
	t, ok := m.tables[key(schema, table)]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("metastore: table %s.%s does not exist", schema, table)
	}
	cp := p
	t.partitions[p.Name] = &cp
	t.changeVersion++
	ch := Change{Schema: schema, Table: table, Kind: ChangePartitionAdded, Location: p.Location, Version: t.changeVersion}
	m.mu.Unlock()
	m.notify(ch)
	return nil
}

// EvolveTable applies a schema change, enforcing the evolution rules. On
// success a new version is recorded.
func (m *Metastore) EvolveTable(schema, table string, newColumns []Column) error {
	m.mu.Lock()
	t, ok := m.tables[key(schema, table)]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("metastore: table %s.%s does not exist", schema, table)
	}
	oldByName := map[string]*types.Type{}
	for _, c := range t.Columns {
		oldByName[strings.ToLower(c.Name)] = c.Type
	}
	for _, c := range newColumns {
		if old, exists := oldByName[strings.ToLower(c.Name)]; exists {
			if err := CheckEvolution(old, c.Type, c.Name); err != nil {
				m.mu.Unlock()
				return err
			}
		}
	}
	t.Columns = newColumns
	t.Versions = append(t.Versions, TableVersion{Version: len(t.Versions) + 1, Columns: newColumns})
	t.changeVersion++
	ch := Change{Schema: schema, Table: table, Kind: ChangeSchemaEvolved, Location: t.Location, Version: t.changeVersion}
	m.mu.Unlock()
	m.notify(ch)
	return nil
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
