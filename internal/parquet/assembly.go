package parquet

import (
	"fmt"

	"prestolite/internal/block"
	"prestolite/internal/types"
)

// Record assembly: turning leaf triplet streams (repetition level,
// definition level, value) back into nested values. The legacy reader
// assembles full boxed row records across all columns; the new reader
// assembles per column directly into columnar blocks.

// cursor walks one decoded leaf chunk. The level streams of sibling leaves
// come from the file and need not agree: a cursor asked to move past its last
// triplet stays there, reads as null and sets *short, which the assembler
// turns into the record's error.
type cursor struct {
	data  *chunkData
	pos   int // triplet index
	vpos  int // value index (def == maxDef positions)
	short *bool
}

func (c *cursor) rep() int {
	if c.data.reps == nil || c.done() {
		return 0
	}
	return int(c.data.reps[c.pos])
}

func (c *cursor) def() int {
	if c.done() {
		*c.short = true
		return 0
	}
	if c.data.defs == nil {
		return c.data.leaf.MaxDef
	}
	return int(c.data.defs[c.pos])
}

func (c *cursor) done() bool { return c.pos >= c.data.entries }

// advance consumes one triplet, returning its value (nil unless def ==
// maxDef).
func (c *cursor) advance() any {
	if c.done() {
		*c.short = true
		return nil
	}
	def := c.def()
	c.pos++
	if def == c.data.leaf.MaxDef {
		v := c.data.valueAt(c.vpos)
		c.vpos++
		return v
	}
	return nil
}

// skipOne consumes one triplet without producing the value.
func (c *cursor) skipOne() {
	if c.done() {
		*c.short = true
		return
	}
	if c.def() == c.data.leaf.MaxDef {
		c.vpos++
	}
	c.pos++
}

// assembler assembles records for one schema subtree.
type assembler struct {
	node *Node
	// cursors holds one cursor per leaf under node, leftmost first: the
	// leaves of a subtree are a contiguous run, so leaf li is cursors[li -
	// node.leaves[0]].
	cursors []cursor
	// short: a leaf ran out of triplets before its siblings did.
	short bool
}

func newAssembler(node *Node, chunks map[int]*chunkData) *assembler {
	a := &assembler{node: node, cursors: make([]cursor, len(node.leaves))}
	for i, li := range node.leaves {
		cd, ok := chunks[li]
		if !ok {
			panic(fmt.Sprintf("parquet: assembler missing chunk for leaf %d", li))
		}
		a.cursors[i] = cursor{data: cd, short: &a.short}
	}
	return a
}

// cursor returns the cursor of leaf li.
func (a *assembler) cursor(li int) *cursor { return &a.cursors[li-a.node.leaves[0]] }

// leftmostOf returns the cursor of node's leftmost leaf, whose levels tell
// whether node is present in the next record.
func (a *assembler) leftmostOf(node *Node) *cursor { return a.cursor(node.leaves[0]) }

// hasNext reports whether another record remains.
func (a *assembler) hasNext() bool { return !a.cursors[0].done() }

// nextValue assembles the next record's value for the subtree.
func (a *assembler) nextValue() (any, error) {
	v, err := a.assemble(a.node)
	if err == nil && a.short {
		err = fmt.Errorf("parquet: the level streams of %s disagree on where a record ends", a.node.Path)
	}
	return v, err
}

// skipRecord consumes the next record without building values (lazy reads
// skip decoding work for filtered-out rows at the value-construction level;
// level streams must still advance). A leaf that runs short is reported by
// the next nextValue.
func (a *assembler) skipRecord() {
	for i := range a.cursors {
		c := &a.cursors[i]
		c.skipOne()
		for !c.done() && c.rep() > 0 {
			c.skipOne()
		}
	}
}

// consumeNull advances every leaf under node by one triplet.
func (a *assembler) consumeNull(node *Node) {
	for _, li := range node.leaves {
		a.cursor(li).skipOne()
	}
}

func (a *assembler) assemble(node *Node) (any, error) {
	switch node.Kind {
	case KindPrimitive:
		return a.cursor(node.LeafIndex).advance(), nil
	case KindStruct:
		// Present iff the leftmost descendant's def reaches this node's
		// DefNotNull.
		lm := a.leftmostOf(node)
		if lm.def() < node.DefNotNull {
			a.consumeNull(node)
			return nil, nil
		}
		fields := make([]any, len(node.Children))
		for i, child := range node.Children {
			v, err := a.assemble(child)
			if err != nil {
				return nil, err
			}
			fields[i] = v
		}
		return fields, nil
	case KindList:
		lm := a.leftmostOf(node)
		switch {
		case lm.def() < node.DefNotNull:
			a.consumeNull(node)
			return nil, nil
		case lm.def() < node.DefHasItems:
			a.consumeNull(node)
			return []any{}, nil
		}
		var items []any
		for {
			v, err := a.assemble(node.Children[0])
			if err != nil {
				return nil, err
			}
			items = append(items, v)
			if lm.done() || lm.rep() < node.RepLevel {
				break
			}
			// rep == node.RepLevel: another element of this list. Deeper
			// rep levels were consumed by the child.
			if lm.rep() > node.RepLevel {
				return nil, fmt.Errorf("parquet: bad repetition level %d at %s", lm.rep(), node.Path)
			}
		}
		return items, nil
	case KindMap:
		lm := a.leftmostOf(node)
		switch {
		case lm.def() < node.DefNotNull:
			a.consumeNull(node)
			return nil, nil
		case lm.def() < node.DefHasItems:
			a.consumeNull(node)
			return [][2]any{}, nil
		}
		var entries [][2]any
		for {
			k, err := a.assemble(node.Children[0])
			if err != nil {
				return nil, err
			}
			v, err := a.assemble(node.Children[1])
			if err != nil {
				return nil, err
			}
			entries = append(entries, [2]any{k, v})
			if lm.done() || lm.rep() < node.RepLevel {
				break
			}
		}
		return entries, nil
	}
	return nil, fmt.Errorf("parquet: bad node kind %d", node.Kind)
}

// ---------------------------------------------------------------------------
// Columnar assembly for the new reader: one subtree at a time into a block,
// optionally restricted to selected record positions.

// assembleBlock builds a block for the node's subtree covering numRecords
// records. selection, when non-nil, is a sorted list of record indexes to
// keep; other records are skipped without building values (§V.H lazy reads:
// "build columnar blocks only if the predicate matches").
func assembleBlock(node *Node, chunks map[int]*chunkData, numRecords int, selection []int) (block.Block, error) {
	// Fast paths: non-repeated primitive columns decode straight from
	// levels + typed values, no boxed assembly (vectorized direct access;
	// §V.I "seek to non-nullable and non-nested value directly").
	if node.Kind == KindPrimitive && node.RepLevel == 0 {
		cd := chunks[node.LeafIndex]
		if cd.present == cd.entries {
			return flatBlock(node, cd, selection)
		}
		return assembleNullableFlat(node, cd, selection)
	}
	a := newAssembler(node, chunks)
	capacity := numRecords
	if selection != nil {
		capacity = len(selection)
	}
	builder := block.NewBuilder(TypeAt(node), capacity)
	selPos := 0
	for rec := 0; rec < numRecords; rec++ {
		if !a.hasNext() {
			return nil, fmt.Errorf("parquet: column %s exhausted at record %d of %d", node.Path, rec, numRecords)
		}
		if selection != nil {
			if selPos >= len(selection) || selection[selPos] != rec {
				a.skipRecord()
				continue
			}
			selPos++
		}
		v, err := a.nextValue()
		if err != nil {
			return nil, err
		}
		builder.Append(v)
	}
	return builder.Build(), nil
}

// flatBlock wraps a flat no-null primitive chunk as a block directly: a
// dictionary-encoded chunk as a DictionaryBlock over its ids, which a
// selection masks without touching the dictionary.
func flatBlock(node *Node, cd *chunkData, selection []int) (block.Block, error) {
	var b block.Block
	switch {
	case cd.ids != nil:
		b = &block.DictionaryBlock{Dictionary: cd.dictionaryBlock(), Ids: cd.ids}
	case node.Prim.Kind == types.KindDouble:
		b = &block.Float64Block{Values: cd.floats}
	case node.Prim.Kind == types.KindBoolean:
		b = &block.BoolBlock{Values: cd.bools}
	case node.Prim.Kind == types.KindVarchar:
		b = &block.VarcharBlock{Values: cd.strs}
	default:
		b = &block.Int64Block{Values: cd.ints}
	}
	if selection != nil {
		b = b.Mask(selection)
	}
	return b, nil
}

// dictionaryBlock is a dictionary-encoded chunk's dictionary as a block.
func (c *chunkData) dictionaryBlock() block.Block {
	if c.leaf.Node.Prim.Kind == types.KindVarchar {
		return &block.VarcharBlock{Values: c.strs}
	}
	return &block.Int64Block{Values: c.ints}
}

// assembleNullableFlat builds a flat nullable primitive block straight from
// levels + values (no boxed assembly).
func assembleNullableFlat(node *Node, cd *chunkData, selection []int) (block.Block, error) {
	n := cd.entries
	maxDef := uint8(node.DefNotNull)
	vpos := 0
	if cd.ids != nil {
		// NULL is id -1.
		ids := make([]int32, n)
		for i, d := range cd.defs {
			if d == maxDef {
				ids[i] = cd.ids[vpos]
				vpos++
			} else {
				ids[i] = -1
			}
		}
		b := block.Block(&block.DictionaryBlock{Dictionary: cd.dictionaryBlock(), Ids: ids})
		if selection != nil {
			b = b.Mask(selection)
		}
		return b, nil
	}
	nulls := make([]bool, n)
	switch node.Prim.Kind {
	case types.KindDouble:
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			if cd.defs[i] == maxDef {
				vals[i] = cd.floats[vpos]
				vpos++
			} else {
				nulls[i] = true
			}
		}
		b := block.Block(&block.Float64Block{Values: vals, Nulls: nulls})
		if selection != nil {
			b = b.Mask(selection)
		}
		return b, nil
	case types.KindBoolean:
		vals := make([]bool, n)
		for i := 0; i < n; i++ {
			if cd.defs[i] == maxDef {
				vals[i] = cd.bools[vpos]
				vpos++
			} else {
				nulls[i] = true
			}
		}
		b := block.Block(&block.BoolBlock{Values: vals, Nulls: nulls})
		if selection != nil {
			b = b.Mask(selection)
		}
		return b, nil
	case types.KindVarchar:
		vals := make([]string, n)
		for i := 0; i < n; i++ {
			if cd.defs[i] == maxDef {
				vals[i] = cd.strs[vpos]
				vpos++
			} else {
				nulls[i] = true
			}
		}
		b := block.Block(&block.VarcharBlock{Values: vals, Nulls: nulls})
		if selection != nil {
			b = b.Mask(selection)
		}
		return b, nil
	default:
		vals := make([]int64, n)
		for i := 0; i < n; i++ {
			if cd.defs[i] == maxDef {
				vals[i] = cd.ints[vpos]
				vpos++
			} else {
				nulls[i] = true
			}
		}
		b := block.Block(&block.Int64Block{Values: vals, Nulls: nulls})
		if selection != nil {
			b = b.Mask(selection)
		}
		return b, nil
	}
}
