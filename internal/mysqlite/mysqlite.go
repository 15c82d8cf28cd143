// Package mysqlite is a small embedded row-oriented transactional store
// standing in for MySQL (§IV: "MySQL is used widely in all companies with
// transaction support"). It provides primary-key indexed tables with
// insert/update/delete and predicate scans. Two consumers exercise it: the
// Presto-MySQL connector (unified SQL without data copy) and the gateway's
// user/group → cluster routing table (§VIII).
package mysqlite

import (
	"fmt"
	"sort"
	"sync"

	"prestolite/internal/expr"
	"prestolite/internal/types"
)

// Column is a typed column.
type Column struct {
	Name string
	Type *types.Type
}

// Table is a row-oriented table with an optional primary key index.
type Table struct {
	Name    string
	Columns []Column
	PKCol   int // -1 when no primary key

	rows  [][]any
	index map[any]int // pk value -> row offset
}

// DB is the embedded database.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// New creates an empty database.
func New() *DB {
	return &DB{tables: map[string]*Table{}}
}

// CreateTable registers a table; pk names the primary key column ("" for
// none).
func (db *DB) CreateTable(name string, cols []Column, pk string) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[name]; exists {
		return nil, fmt.Errorf("mysqlite: table %q already exists", name)
	}
	t := &Table{Name: name, Columns: cols, PKCol: -1, index: map[any]int{}}
	if pk != "" {
		for i, c := range cols {
			if c.Name == pk {
				t.PKCol = i
			}
		}
		if t.PKCol < 0 {
			return nil, fmt.Errorf("mysqlite: primary key column %q not found", pk)
		}
	}
	db.tables[name] = t
	return t, nil
}

// Table resolves a table by name.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("mysqlite: table %q does not exist", name)
	}
	return t, nil
}

// Tables lists table names, sorted.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

var tableLocks sync.Mutex

// Insert adds a row, enforcing primary key uniqueness.
func (db *DB) Insert(table string, row []any) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	if len(row) != len(t.Columns) {
		return fmt.Errorf("mysqlite: %s expects %d values, got %d", table, len(t.Columns), len(row))
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if t.PKCol >= 0 {
		pk := row[t.PKCol]
		if pk == nil {
			return fmt.Errorf("mysqlite: %s primary key cannot be NULL", table)
		}
		if _, exists := t.index[pk]; exists {
			return fmt.Errorf("mysqlite: duplicate primary key %v in %s", pk, table)
		}
		t.index[pk] = len(t.rows)
	}
	t.rows = append(t.rows, append([]any(nil), row...))
	return nil
}

// Upsert inserts or replaces by primary key.
func (db *DB) Upsert(table string, row []any) error {
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	if t.PKCol < 0 {
		return fmt.Errorf("mysqlite: %s has no primary key", table)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	pk := row[t.PKCol]
	if old, exists := t.index[pk]; exists {
		t.rows[old] = append([]any(nil), row...)
		return nil
	}
	t.index[pk] = len(t.rows)
	t.rows = append(t.rows, append([]any(nil), row...))
	return nil
}

// GetByPK does a point lookup through the index.
func (db *DB) GetByPK(table string, pk any) ([]any, bool, error) {
	t, err := db.Table(table)
	if err != nil {
		return nil, false, err
	}
	if t.PKCol < 0 {
		return nil, false, fmt.Errorf("mysqlite: %s has no primary key", table)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	off, exists := t.index[pk]
	if !exists {
		return nil, false, nil
	}
	return append([]any(nil), t.rows[off]...), true, nil
}

// Scan returns rows matching all predicates, projected to the given column
// ordinals (nil = all), stopping at limit (<=0 = unlimited). Point lookups
// on the primary key use the index.
func (db *DB) Scan(table string, preds []expr.Comparison, projection []int, limit int64) ([][]any, error) {
	t, err := db.Table(table)
	if err != nil {
		return nil, err
	}
	colIdx := map[string]int{}
	for i, c := range t.Columns {
		colIdx[c.Name] = i
	}
	for _, p := range preds {
		if _, ok := colIdx[p.Column]; !ok {
			return nil, fmt.Errorf("mysqlite: unknown column %q in %s", p.Column, table)
		}
	}
	db.mu.RLock()
	defer db.mu.RUnlock()

	project := func(row []any) []any {
		if projection == nil {
			return append([]any(nil), row...)
		}
		out := make([]any, len(projection))
		for i, ord := range projection {
			out[i] = row[ord]
		}
		return out
	}

	// Index fast path: single eq predicate on the primary key.
	if t.PKCol >= 0 && len(preds) == 1 && preds[0].Op == expr.OpEq && colIdx[preds[0].Column] == t.PKCol {
		off, exists := t.index[preds[0].Values[0]]
		if !exists {
			return nil, nil
		}
		return [][]any{project(t.rows[off])}, nil
	}

	var out [][]any
	for _, row := range t.rows {
		ok := true
		for _, p := range preds {
			if !p.Match(row[colIdx[p.Column]]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		out = append(out, project(row))
		if limit > 0 && int64(len(out)) >= limit {
			break
		}
	}
	return out, nil
}

// Count returns the table's row count.
func (db *DB) Count(table string) (int, error) {
	t, err := db.Table(table)
	if err != nil {
		return 0, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(t.rows), nil
}
