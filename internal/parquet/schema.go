// Package parquet implements the columnar file format of §V: data
// horizontally partitioned into row groups, vertically into column chunks,
// nested fields stored as separate columns via repetition/definition levels,
// dictionary pages, and a footer with codecs, encodings and column-level
// min/max statistics (Fig 3).
//
// Two readers operate on the identical format: the legacy reader (row-by-row
// assembly of all fields, §V.C) and the new reader (nested column pruning,
// columnar reads, predicate pushdown, dictionary pushdown, lazy reads,
// vectorized decoding — §V.D–§V.I). Two writers likewise: the legacy
// record-reconstructing writer and the native columnar writer (§V.J).
package parquet

import (
	"fmt"
	"strings"

	"prestolite/internal/types"
)

// NodeKind classifies schema tree nodes.
type NodeKind int

const (
	KindPrimitive NodeKind = iota
	KindStruct
	KindList
	KindMap
)

// Node is one field in the schema tree. Every field is optional (nullable);
// lists and maps add a repetition level and an extra definition level that
// distinguishes NULL from empty.
type Node struct {
	Name string
	Kind NodeKind
	// Prim is the SQL type of a primitive leaf.
	Prim *types.Type
	// Children: struct fields; list: [element]; map: [key, value].
	Children []*Node

	// RepLevel is the max repetition level at/above this node.
	RepLevel int
	// DefNotNull is the definition level meaning "this field is present".
	DefNotNull int
	// DefHasItems (lists/maps) means "present and non-empty".
	DefHasItems int
	// LeafIndex is the index into Schema.Leaves for primitives (-1 else).
	LeafIndex int

	// Path is the dotted path from the root, e.g. "base.city_id".
	Path string

	// leaves are the leaf indexes of the subtree, leftmost first: a
	// contiguous run, since leaves are numbered in schema order.
	leaves []int
}

// Leaf is a primitive column stored as one chunk per row group.
type Leaf struct {
	Node   *Node
	MaxRep int
	MaxDef int
	Index  int
}

// Schema is the file schema: named, typed top-level columns shredded into
// primitive leaves.
type Schema struct {
	Names  []string
	Types  []*types.Type
	Roots  []*Node
	Leaves []*Leaf
}

// NewSchema builds a schema from top-level column names and types.
func NewSchema(names []string, colTypes []*types.Type) (*Schema, error) {
	if len(names) != len(colTypes) {
		return nil, fmt.Errorf("parquet: %d names for %d types", len(names), len(colTypes))
	}
	s := &Schema{Names: names, Types: colTypes}
	for i, name := range names {
		node, err := s.buildNode(name, name, colTypes[i], 0, 0)
		if err != nil {
			return nil, err
		}
		s.Roots = append(s.Roots, node)
	}
	return s, nil
}

func (s *Schema) buildNode(name, path string, t *types.Type, rep, def int) (*Node, error) {
	n := &Node{Name: name, Path: path, RepLevel: rep, DefNotNull: def + 1, LeafIndex: -1}
	switch t.Kind {
	case types.KindArray:
		n.Kind = KindList
		n.RepLevel = rep + 1
		n.DefHasItems = n.DefNotNull + 1
		elem, err := s.buildNode("element", path+".element", t.Elem, rep+1, n.DefHasItems)
		if err != nil {
			return nil, err
		}
		n.Children = []*Node{elem}
	case types.KindMap:
		n.Kind = KindMap
		n.RepLevel = rep + 1
		n.DefHasItems = n.DefNotNull + 1
		key, err := s.buildNode("key", path+".key", t.Key, rep+1, n.DefHasItems)
		if err != nil {
			return nil, err
		}
		val, err := s.buildNode("value", path+".value", t.Value, rep+1, n.DefHasItems)
		if err != nil {
			return nil, err
		}
		n.Children = []*Node{key, val}
	case types.KindRow:
		n.Kind = KindStruct
		for _, f := range t.Fields {
			child, err := s.buildNode(f.Name, path+"."+f.Name, f.Type, rep, n.DefNotNull)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, child)
		}
	case types.KindUnknown:
		return nil, fmt.Errorf("parquet: cannot store unknown type at %s", path)
	default:
		n.Kind = KindPrimitive
		n.Prim = t
		leaf := &Leaf{Node: n, MaxRep: rep, MaxDef: n.DefNotNull, Index: len(s.Leaves)}
		n.LeafIndex = leaf.Index
		s.Leaves = append(s.Leaves, leaf)
	}
	for _, c := range n.Children {
		n.leaves = append(n.leaves, c.leaves...)
	}
	if n.Kind == KindPrimitive {
		n.leaves = []int{n.LeafIndex}
	}
	return n, nil
}

// ColumnIndex returns the top-level column ordinal, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, n := range s.Names {
		if strings.EqualFold(n, name) {
			return i
		}
	}
	return -1
}

// Resolve finds the node at a dotted path (e.g. "base.city_id"); struct
// steps only. Returns nil if the path does not exist.
func (s *Schema) Resolve(path string) *Node {
	parts := strings.Split(path, ".")
	idx := s.ColumnIndex(parts[0])
	if idx < 0 {
		return nil
	}
	n := s.Roots[idx]
	for _, p := range parts[1:] {
		if n.Kind != KindStruct {
			return nil
		}
		var next *Node
		for _, c := range n.Children {
			if strings.EqualFold(c.Name, p) {
				next = c
				break
			}
		}
		if next == nil {
			return nil
		}
		n = next
	}
	return n
}

// LeavesUnder returns the leaf indexes in node's subtree, in order. The slice
// is the node's own, computed when the schema was built: callers only read it.
func LeavesUnder(n *Node) []int { return n.leaves }

// TypeAt returns the SQL type of the node's subtree.
func TypeAt(n *Node) *types.Type {
	switch n.Kind {
	case KindPrimitive:
		return n.Prim
	case KindList:
		return types.NewArray(TypeAt(n.Children[0]))
	case KindMap:
		return types.NewMap(TypeAt(n.Children[0]), TypeAt(n.Children[1]))
	default:
		fields := make([]types.Field, len(n.Children))
		for i, c := range n.Children {
			fields[i] = types.Field{Name: c.Name, Type: TypeAt(c)}
		}
		return types.NewRow(fields...)
	}
}
