// Package elastic simulates an Elasticsearch-style document store: indexes
// of JSON-ish documents with typed field mappings and term-level inverted
// indexes. Uber runs Elasticsearch "for real time monitoring" (§IV); the
// Presto-Elasticsearch connector maps "each Elasticsearch index into a
// table [and] each Elasticsearch field into a column".
package elastic

import (
	"fmt"
	"sort"
	"sync"

	"prestolite/internal/expr"
	"prestolite/internal/types"
)

// Field is a typed mapping entry.
type Field struct {
	Name string
	Type *types.Type // Bigint, Double, Varchar, Boolean
}

// Index is one document collection with a fixed mapping.
type Index struct {
	Name   string
	Fields []Field

	mu   sync.RWMutex
	docs []map[string]any
	// inverted: term index for varchar fields, field -> value -> doc ids.
	inverted map[string]map[string][]int
}

// Store is the cluster of indexes.
type Store struct {
	mu      sync.RWMutex
	indexes map[string]*Index
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{indexes: map[string]*Index{}}
}

// CreateIndex registers an index with a mapping.
func (s *Store) CreateIndex(name string, fields []Field) (*Index, error) {
	for _, f := range fields {
		switch f.Type.Kind {
		case types.KindBigint, types.KindDouble, types.KindVarchar, types.KindBoolean:
		default:
			return nil, fmt.Errorf("elastic: unsupported field type %s for %s", f.Type, f.Name)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.indexes[name]; exists {
		return nil, fmt.Errorf("elastic: index %q already exists", name)
	}
	idx := &Index{Name: name, Fields: fields, inverted: map[string]map[string][]int{}}
	for _, f := range fields {
		if f.Type.Kind == types.KindVarchar {
			idx.inverted[f.Name] = map[string][]int{}
		}
	}
	s.indexes[name] = idx
	return idx, nil
}

// GetIndex resolves an index.
func (s *Store) GetIndex(name string) (*Index, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	idx, ok := s.indexes[name]
	if !ok {
		return nil, fmt.Errorf("elastic: index %q does not exist", name)
	}
	return idx, nil
}

// Indexes lists index names, sorted.
func (s *Store) Indexes() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.indexes))
	for n := range s.indexes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IndexDocument appends one document. Unknown fields are rejected; missing
// fields read as NULL.
func (idx *Index) IndexDocument(doc map[string]any) error {
	known := map[string]*types.Type{}
	for _, f := range idx.Fields {
		known[f.Name] = f.Type
	}
	for k, v := range doc {
		t, ok := known[k]
		if !ok {
			return fmt.Errorf("elastic: index %s has no field %q", idx.Name, k)
		}
		if v == nil {
			continue
		}
		okType := false
		switch t.Kind {
		case types.KindBigint:
			_, okType = v.(int64)
		case types.KindDouble:
			_, okType = v.(float64)
		case types.KindVarchar:
			_, okType = v.(string)
		case types.KindBoolean:
			_, okType = v.(bool)
		}
		if !okType {
			return fmt.Errorf("elastic: field %s.%s expects %s, got %T", idx.Name, k, t, v)
		}
	}
	idx.mu.Lock()
	defer idx.mu.Unlock()
	id := len(idx.docs)
	copied := make(map[string]any, len(doc))
	for k, v := range doc {
		copied[k] = v
	}
	idx.docs = append(idx.docs, copied)
	for field, terms := range idx.inverted {
		if v, ok := copied[field].(string); ok {
			terms[v] = append(terms[v], id)
		}
	}
	return nil
}

// Query is the native search: term/range filters, source filtering
// (projection), and size (limit).
type Query struct {
	Index string
	// Terms are exact-match filters on varchar fields (term query).
	Terms map[string]string
	// Ranges are comparisons evaluated per candidate document; Column names
	// the field.
	Ranges []expr.Comparison
	// Source lists the fields to return (nil = all mapped fields).
	Source []string
	// Size bounds hits (<= 0: unlimited).
	Size int64
}

// Hit is one matching document projected to Source order.
type Hit []any

// Search executes a query, using the inverted index for term filters.
func (s *Store) Search(q Query) ([]string, []Hit, error) {
	idx, err := s.GetIndex(q.Index)
	if err != nil {
		return nil, nil, err
	}
	source := q.Source
	if len(source) == 0 {
		for _, f := range idx.Fields {
			source = append(source, f.Name)
		}
	}
	fieldType := map[string]*types.Type{}
	for _, f := range idx.Fields {
		fieldType[f.Name] = f.Type
	}
	for _, f := range source {
		if fieldType[f] == nil {
			return nil, nil, fmt.Errorf("elastic: unknown source field %q", f)
		}
	}
	for f := range q.Terms {
		if fieldType[f] == nil || fieldType[f].Kind != types.KindVarchar {
			return nil, nil, fmt.Errorf("elastic: term filter needs a varchar field, got %q", f)
		}
	}
	for _, r := range q.Ranges {
		if fieldType[r.Column] == nil {
			return nil, nil, fmt.Errorf("elastic: unknown range field %q", r.Column)
		}
	}

	idx.mu.RLock()
	defer idx.mu.RUnlock()

	// Candidate ids: intersect posting lists for term filters, else all.
	var candidates []int
	if len(q.Terms) > 0 {
		first := true
		for field, term := range q.Terms {
			posting := idx.inverted[field][term]
			if first {
				candidates = append([]int(nil), posting...)
				first = false
				continue
			}
			candidates = intersectSorted(candidates, posting)
		}
	} else {
		candidates = make([]int, len(idx.docs))
		for i := range candidates {
			candidates[i] = i
		}
	}

	var hits []Hit
	for _, id := range candidates {
		doc := idx.docs[id]
		ok := true
		for _, r := range q.Ranges {
			if !r.Match(doc[r.Column]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		hit := make(Hit, len(source))
		for i, f := range source {
			hit[i] = doc[f]
		}
		hits = append(hits, hit)
		if q.Size > 0 && int64(len(hits)) >= q.Size {
			break
		}
	}
	return source, hits, nil
}

func intersectSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}
