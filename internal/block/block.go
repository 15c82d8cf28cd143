// Package block implements the engine's columnar in-memory data
// representation. A Page is a batch of rows stored as one Block per column;
// operators process whole Blocks at a time (vectorized execution, §III of the
// paper) instead of row by row.
//
// Block kinds mirror Presto's: flat primitive blocks, nested array/map/row
// blocks, plus the encoded blocks the Parquet reader work relies on:
// DictionaryBlock (dictionary pushdown), RunLengthBlock (constants) and
// LazyBlock (lazy reads — §V.H).
package block

import (
	"fmt"
	"strings"
)

// Block is an immutable column of values. Implementations must be safe for
// concurrent reads.
type Block interface {
	// Count returns the number of positions (rows) in the block.
	Count() int
	// IsNull reports whether position i is SQL NULL.
	IsNull(i int) bool
	// Value returns the value at position i boxed as:
	// int64, float64, bool, string, []any (array), [][2]any (map entries,
	// key/value pairs in insertion order), []any (row fields), or nil.
	Value(i int) any
	// Region returns a view of length rows starting at offset. Views share
	// storage with the parent block.
	Region(offset, length int) Block
	// Mask returns a new block containing only the given positions, in order.
	Mask(positions []int) Block
	// SizeBytes is an estimate of retained memory, used for memory accounting.
	SizeBytes() int
}

// Loadable is implemented by LazyBlock; Load forces materialization.
type Loadable interface {
	Load() Block
}

// Unwrap forces lazy blocks and returns a fully materialized block.
func Unwrap(b Block) Block {
	for {
		l, ok := b.(Loadable)
		if !ok {
			return b
		}
		b = l.Load()
	}
}

func checkRegion(count, offset, length int) {
	if offset < 0 || length < 0 || offset+length > count {
		panic(fmt.Sprintf("block: region [%d, %d) out of bounds of %d", offset, offset+length, count))
	}
}

// ---------------------------------------------------------------------------
// Int64Block: BIGINT, INTEGER and DATE columns.

// Int64Block stores 64-bit integers with an optional null mask.
type Int64Block struct {
	Values []int64
	Nulls  []bool // nil means no nulls
}

func (b *Int64Block) Count() int { return len(b.Values) }

func (b *Int64Block) IsNull(i int) bool { return b.Nulls != nil && b.Nulls[i] }

func (b *Int64Block) Value(i int) any {
	if b.IsNull(i) {
		return nil
	}
	return b.Values[i]
}

func (b *Int64Block) Region(offset, length int) Block {
	checkRegion(len(b.Values), offset, length)
	r := &Int64Block{Values: b.Values[offset : offset+length]}
	if b.Nulls != nil {
		r.Nulls = b.Nulls[offset : offset+length]
	}
	return r
}

func (b *Int64Block) Mask(positions []int) Block {
	vals := make([]int64, len(positions))
	var nulls []bool
	for out, p := range positions {
		if b.IsNull(p) {
			if nulls == nil {
				nulls = make([]bool, len(positions))
			}
			nulls[out] = true
			continue
		}
		vals[out] = b.Values[p]
	}
	return &Int64Block{Values: vals, Nulls: nulls}
}

func (b *Int64Block) SizeBytes() int { return 8*len(b.Values) + len(b.Nulls) }

// ---------------------------------------------------------------------------
// Float64Block: DOUBLE columns.

// Float64Block stores float64 values with an optional null mask.
type Float64Block struct {
	Values []float64
	Nulls  []bool
}

func (b *Float64Block) Count() int        { return len(b.Values) }
func (b *Float64Block) IsNull(i int) bool { return b.Nulls != nil && b.Nulls[i] }

func (b *Float64Block) Value(i int) any {
	if b.IsNull(i) {
		return nil
	}
	return b.Values[i]
}

func (b *Float64Block) Region(offset, length int) Block {
	checkRegion(len(b.Values), offset, length)
	r := &Float64Block{Values: b.Values[offset : offset+length]}
	if b.Nulls != nil {
		r.Nulls = b.Nulls[offset : offset+length]
	}
	return r
}

func (b *Float64Block) Mask(positions []int) Block {
	vals := make([]float64, len(positions))
	var nulls []bool
	for out, p := range positions {
		if b.IsNull(p) {
			if nulls == nil {
				nulls = make([]bool, len(positions))
			}
			nulls[out] = true
			continue
		}
		vals[out] = b.Values[p]
	}
	return &Float64Block{Values: vals, Nulls: nulls}
}

func (b *Float64Block) SizeBytes() int { return 8*len(b.Values) + len(b.Nulls) }

// ---------------------------------------------------------------------------
// BoolBlock: BOOLEAN columns.

// BoolBlock stores booleans with an optional null mask.
type BoolBlock struct {
	Values []bool
	Nulls  []bool
}

func (b *BoolBlock) Count() int        { return len(b.Values) }
func (b *BoolBlock) IsNull(i int) bool { return b.Nulls != nil && b.Nulls[i] }

func (b *BoolBlock) Value(i int) any {
	if b.IsNull(i) {
		return nil
	}
	return b.Values[i]
}

func (b *BoolBlock) Region(offset, length int) Block {
	checkRegion(len(b.Values), offset, length)
	r := &BoolBlock{Values: b.Values[offset : offset+length]}
	if b.Nulls != nil {
		r.Nulls = b.Nulls[offset : offset+length]
	}
	return r
}

func (b *BoolBlock) Mask(positions []int) Block {
	vals := make([]bool, len(positions))
	var nulls []bool
	for out, p := range positions {
		if b.IsNull(p) {
			if nulls == nil {
				nulls = make([]bool, len(positions))
			}
			nulls[out] = true
			continue
		}
		vals[out] = b.Values[p]
	}
	return &BoolBlock{Values: vals, Nulls: nulls}
}

func (b *BoolBlock) SizeBytes() int { return len(b.Values) + len(b.Nulls) }

// ---------------------------------------------------------------------------
// VarcharBlock: VARCHAR columns.

// VarcharBlock stores strings with an optional null mask.
type VarcharBlock struct {
	Values []string
	Nulls  []bool
}

func (b *VarcharBlock) Count() int        { return len(b.Values) }
func (b *VarcharBlock) IsNull(i int) bool { return b.Nulls != nil && b.Nulls[i] }

func (b *VarcharBlock) Value(i int) any {
	if b.IsNull(i) {
		return nil
	}
	return b.Values[i]
}

func (b *VarcharBlock) Region(offset, length int) Block {
	checkRegion(len(b.Values), offset, length)
	r := &VarcharBlock{Values: b.Values[offset : offset+length]}
	if b.Nulls != nil {
		r.Nulls = b.Nulls[offset : offset+length]
	}
	return r
}

func (b *VarcharBlock) Mask(positions []int) Block {
	vals := make([]string, len(positions))
	var nulls []bool
	for out, p := range positions {
		if b.IsNull(p) {
			if nulls == nil {
				nulls = make([]bool, len(positions))
			}
			nulls[out] = true
			continue
		}
		vals[out] = b.Values[p]
	}
	return &VarcharBlock{Values: vals, Nulls: nulls}
}

func (b *VarcharBlock) SizeBytes() int {
	n := len(b.Nulls) + 16*len(b.Values)
	for _, s := range b.Values {
		n += len(s)
	}
	return n
}

// ---------------------------------------------------------------------------
// ArrayBlock: ARRAY columns.

// ArrayBlock stores arrays as a flattened Elements block plus per-row offsets.
// Row i holds Elements[Offsets[i]:Offsets[i+1]].
type ArrayBlock struct {
	Elements Block
	Offsets  []int32 // length Count()+1
	Nulls    []bool
}

func (b *ArrayBlock) Count() int        { return len(b.Offsets) - 1 }
func (b *ArrayBlock) IsNull(i int) bool { return b.Nulls != nil && b.Nulls[i] }

func (b *ArrayBlock) Value(i int) any {
	if b.IsNull(i) {
		return nil
	}
	start, end := int(b.Offsets[i]), int(b.Offsets[i+1])
	out := make([]any, 0, end-start)
	for j := start; j < end; j++ {
		out = append(out, b.Elements.Value(j))
	}
	return out
}

func (b *ArrayBlock) Region(offset, length int) Block {
	checkRegion(b.Count(), offset, length)
	// Keep the shared elements block; only re-slice the offsets.
	offs := make([]int32, length+1)
	copy(offs, b.Offsets[offset:offset+length+1])
	r := &ArrayBlock{Elements: b.Elements, Offsets: offs}
	if b.Nulls != nil {
		r.Nulls = b.Nulls[offset : offset+length]
	}
	return r
}

func (b *ArrayBlock) Mask(positions []int) Block {
	var elemPos []int
	offs := make([]int32, 1, len(positions)+1)
	var nulls []bool
	for out, p := range positions {
		if b.IsNull(p) {
			if nulls == nil {
				nulls = make([]bool, len(positions))
			}
			nulls[out] = true
			offs = append(offs, offs[len(offs)-1])
			continue
		}
		start, end := int(b.Offsets[p]), int(b.Offsets[p+1])
		for j := start; j < end; j++ {
			elemPos = append(elemPos, j)
		}
		offs = append(offs, offs[len(offs)-1]+int32(end-start))
	}
	return &ArrayBlock{Elements: b.Elements.Mask(elemPos), Offsets: offs, Nulls: nulls}
}

func (b *ArrayBlock) SizeBytes() int { return b.Elements.SizeBytes() + 4*len(b.Offsets) + len(b.Nulls) }

// ---------------------------------------------------------------------------
// MapBlock: MAP columns.

// MapBlock stores maps as parallel flattened Keys/Values blocks plus offsets.
type MapBlock struct {
	Keys    Block
	Values  Block
	Offsets []int32 // length Count()+1
	Nulls   []bool
}

func (b *MapBlock) Count() int        { return len(b.Offsets) - 1 }
func (b *MapBlock) IsNull(i int) bool { return b.Nulls != nil && b.Nulls[i] }

func (b *MapBlock) Value(i int) any {
	if b.IsNull(i) {
		return nil
	}
	start, end := int(b.Offsets[i]), int(b.Offsets[i+1])
	out := make([][2]any, 0, end-start)
	for j := start; j < end; j++ {
		out = append(out, [2]any{b.Keys.Value(j), b.Values.Value(j)})
	}
	return out
}

func (b *MapBlock) Region(offset, length int) Block {
	checkRegion(b.Count(), offset, length)
	offs := make([]int32, length+1)
	copy(offs, b.Offsets[offset:offset+length+1])
	r := &MapBlock{Keys: b.Keys, Values: b.Values, Offsets: offs}
	if b.Nulls != nil {
		r.Nulls = b.Nulls[offset : offset+length]
	}
	return r
}

func (b *MapBlock) Mask(positions []int) Block {
	var entryPos []int
	offs := make([]int32, 1, len(positions)+1)
	var nulls []bool
	for out, p := range positions {
		if b.IsNull(p) {
			if nulls == nil {
				nulls = make([]bool, len(positions))
			}
			nulls[out] = true
			offs = append(offs, offs[len(offs)-1])
			continue
		}
		start, end := int(b.Offsets[p]), int(b.Offsets[p+1])
		for j := start; j < end; j++ {
			entryPos = append(entryPos, j)
		}
		offs = append(offs, offs[len(offs)-1]+int32(end-start))
	}
	return &MapBlock{Keys: b.Keys.Mask(entryPos), Values: b.Values.Mask(entryPos), Offsets: offs, Nulls: nulls}
}

func (b *MapBlock) SizeBytes() int {
	return b.Keys.SizeBytes() + b.Values.SizeBytes() + 4*len(b.Offsets) + len(b.Nulls)
}

// ---------------------------------------------------------------------------
// RowBlock: ROW (nested struct) columns.

// RowBlock stores a struct column as one child block per field. All children
// have the same Count as the RowBlock. A null struct has null children at the
// same position (children may hold arbitrary values there).
type RowBlock struct {
	Fields []Block
	Nulls  []bool
	N      int
}

// NewRowBlock builds a row block over field children.
func NewRowBlock(n int, fields []Block, nulls []bool) *RowBlock {
	for _, f := range fields {
		if f.Count() != n {
			//lint:ignore hotalloc only evaluated on the panic path of a broken invariant
			panic(fmt.Sprintf("block: row field count %d != %d", f.Count(), n))
		}
	}
	return &RowBlock{Fields: fields, Nulls: nulls, N: n}
}

func (b *RowBlock) Count() int        { return b.N }
func (b *RowBlock) IsNull(i int) bool { return b.Nulls != nil && b.Nulls[i] }

func (b *RowBlock) Value(i int) any {
	if b.IsNull(i) {
		return nil
	}
	out := make([]any, len(b.Fields))
	for f, fb := range b.Fields {
		out[f] = fb.Value(i)
	}
	return out
}

func (b *RowBlock) Region(offset, length int) Block {
	checkRegion(b.N, offset, length)
	fields := make([]Block, len(b.Fields))
	for i, f := range b.Fields {
		fields[i] = f.Region(offset, length)
	}
	r := &RowBlock{Fields: fields, N: length}
	if b.Nulls != nil {
		r.Nulls = b.Nulls[offset : offset+length]
	}
	return r
}

func (b *RowBlock) Mask(positions []int) Block {
	fields := make([]Block, len(b.Fields))
	for i, f := range b.Fields {
		fields[i] = f.Mask(positions)
	}
	var nulls []bool
	if b.Nulls != nil {
		nulls = make([]bool, len(positions))
		for out, p := range positions {
			nulls[out] = b.Nulls[p]
		}
	}
	return &RowBlock{Fields: fields, Nulls: nulls, N: len(positions)}
}

func (b *RowBlock) SizeBytes() int {
	n := len(b.Nulls)
	for _, f := range b.Fields {
		n += f.SizeBytes()
	}
	return n
}

// ---------------------------------------------------------------------------
// DictionaryBlock: dictionary-encoded column.

// DictionaryBlock maps positions through Ids into a (usually small)
// Dictionary block. Produced by the new Parquet reader for dictionary-encoded
// chunks so downstream predicate evaluation touches each distinct value once.
type DictionaryBlock struct {
	Dictionary Block
	Ids        []int32 // -1 marks null
}

func (b *DictionaryBlock) Count() int { return len(b.Ids) }
func (b *DictionaryBlock) IsNull(i int) bool {
	return b.Ids[i] < 0 || b.Dictionary.IsNull(int(b.Ids[i]))
}

func (b *DictionaryBlock) Value(i int) any {
	if b.Ids[i] < 0 {
		return nil
	}
	return b.Dictionary.Value(int(b.Ids[i]))
}

func (b *DictionaryBlock) Region(offset, length int) Block {
	checkRegion(len(b.Ids), offset, length)
	return &DictionaryBlock{Dictionary: b.Dictionary, Ids: b.Ids[offset : offset+length]}
}

func (b *DictionaryBlock) Mask(positions []int) Block {
	ids := make([]int32, len(positions))
	for out, p := range positions {
		ids[out] = b.Ids[p]
	}
	return &DictionaryBlock{Dictionary: b.Dictionary, Ids: ids}
}

func (b *DictionaryBlock) SizeBytes() int { return b.Dictionary.SizeBytes() + 4*len(b.Ids) }

// Decode flattens the dictionary encoding into a plain block.
func (b *DictionaryBlock) Decode() Block {
	pos := make([]int, len(b.Ids))
	var nullPads []int
	for i, id := range b.Ids {
		if id < 0 {
			// Gathers position 0 as a stand-in; forced to NULL below.
			nullPads = append(nullPads, i)
			continue
		}
		pos[i] = int(id)
	}
	if len(nullPads) == 0 {
		return b.Dictionary.Mask(pos)
	}
	if b.Dictionary.Count() == 0 {
		// A column that is NULL in every row has no entry to stand in.
		return allNull(b.Dictionary, len(b.Ids))
	}
	return withNulls(flatten(b.Dictionary.Mask(pos)), nullPads)
}

// allNull returns n NULL positions of like's kind.
func allNull(like Block, n int) Block {
	nulls := make([]bool, n)
	for i := range nulls {
		nulls[i] = true
	}
	switch t := flatten(like).(type) {
	case *Int64Block:
		return &Int64Block{Values: make([]int64, n), Nulls: nulls}
	case *Float64Block:
		return &Float64Block{Values: make([]float64, n), Nulls: nulls}
	case *BoolBlock:
		return &BoolBlock{Values: make([]bool, n), Nulls: nulls}
	case *VarcharBlock:
		return &VarcharBlock{Values: make([]string, n), Nulls: nulls}
	case *ArrayBlock:
		return &ArrayBlock{Elements: t.Elements, Offsets: make([]int32, n+1), Nulls: nulls}
	case *MapBlock:
		return &MapBlock{Keys: t.Keys, Values: t.Values, Offsets: make([]int32, n+1), Nulls: nulls}
	case *RowBlock:
		fields := make([]Block, len(t.Fields))
		for i, f := range t.Fields {
			fields[i] = allNull(f, n)
		}
		return &RowBlock{Fields: fields, Nulls: nulls, N: n}
	default:
		panic(fmt.Sprintf("block: allNull unsupported %T", like))
	}
}

// withNulls returns a copy of b with the given positions forced to null.
func withNulls(b Block, positions []int) Block {
	n := b.Count()
	nulls := make([]bool, n)
	for i := 0; i < n; i++ {
		nulls[i] = b.IsNull(i)
	}
	for _, p := range positions {
		nulls[p] = true
	}
	switch t := b.(type) {
	case *Int64Block:
		return &Int64Block{Values: t.Values, Nulls: nulls}
	case *Float64Block:
		return &Float64Block{Values: t.Values, Nulls: nulls}
	case *BoolBlock:
		return &BoolBlock{Values: t.Values, Nulls: nulls}
	case *VarcharBlock:
		return &VarcharBlock{Values: t.Values, Nulls: nulls}
	case *ArrayBlock:
		return &ArrayBlock{Elements: t.Elements, Offsets: t.Offsets, Nulls: nulls}
	case *MapBlock:
		return &MapBlock{Keys: t.Keys, Values: t.Values, Offsets: t.Offsets, Nulls: nulls}
	case *RowBlock:
		return &RowBlock{Fields: t.Fields, Nulls: nulls, N: t.N}
	default:
		panic(fmt.Sprintf("block: withNulls unsupported %T", b))
	}
}

// ---------------------------------------------------------------------------
// RunLengthBlock: a single value repeated.

// RunLengthBlock represents one value repeated N times — used for constants
// and partition key columns.
type RunLengthBlock struct {
	Single Block // exactly one position
	N      int
}

// NewRunLengthBlock repeats the first position of single n times.
func NewRunLengthBlock(single Block, n int) *RunLengthBlock {
	if single.Count() != 1 {
		panic("block: RunLengthBlock needs a single-position block")
	}
	return &RunLengthBlock{Single: single, N: n}
}

func (b *RunLengthBlock) Count() int        { return b.N }
func (b *RunLengthBlock) IsNull(i int) bool { return b.Single.IsNull(0) }
func (b *RunLengthBlock) Value(i int) any   { return b.Single.Value(0) }

func (b *RunLengthBlock) Region(offset, length int) Block {
	checkRegion(b.N, offset, length)
	return &RunLengthBlock{Single: b.Single, N: length}
}

func (b *RunLengthBlock) Mask(positions []int) Block {
	return &RunLengthBlock{Single: b.Single, N: len(positions)}
}

func (b *RunLengthBlock) SizeBytes() int { return b.Single.SizeBytes() + 8 }

// ---------------------------------------------------------------------------
// LazyBlock: deferred column materialization (lazy reads, §V.H).

// LazyBlock defers reading a column until it is actually accessed. The new
// Parquet reader wraps projected columns in LazyBlocks so rows filtered out
// by the predicate never pay the decode cost.
type LazyBlock struct {
	N      int
	Loader func() Block
	loaded Block
}

// LoadError is what a loader panics with when the column cannot be
// materialized (a corrupt or unreadable chunk). Block's accessors have no
// error result, so the failure unwinds to whoever drives the code that
// touched the block, and is reported there as that query's error: the
// drivers of a pipeline (execution.Drain, the local exchange's producers) and
// the two places results leave the engine (EncodePage, core's result
// materialization) recover it with RecoveredLoadError.
type LoadError struct{ Err error }

func (e *LoadError) Error() string { return e.Err.Error() }
func (e *LoadError) Unwrap() error { return e.Err }

// RecoveredLoadError interprets what recover() returned in a deferred
// function at one of those boundaries: nil when nothing panicked, the error a
// lazy column failed to load with, and any other panic raised again — that
// one is a bug, not an input.
func RecoveredLoadError(r any) error {
	if r == nil {
		return nil
	}
	if le, ok := r.(*LoadError); ok {
		return le.Err
	}
	panic(r)
}

// NewLazyBlock builds a lazy block of n rows materialized by loader on first
// access. Loader must return a block with exactly n rows, or panic with a
// *LoadError.
func NewLazyBlock(n int, loader func() Block) *LazyBlock {
	return &LazyBlock{N: n, Loader: loader}
}

// Load materializes the block (idempotent, not safe for concurrent first use).
func (b *LazyBlock) Load() Block {
	if b.loaded == nil {
		b.loaded = Unwrap(b.Loader())
		if b.loaded.Count() != b.N {
			panic(fmt.Sprintf("block: lazy loader returned %d rows, want %d", b.loaded.Count(), b.N))
		}
	}
	return b.loaded
}

func (b *LazyBlock) Count() int        { return b.N }
func (b *LazyBlock) IsNull(i int) bool { return b.Load().IsNull(i) }
func (b *LazyBlock) Value(i int) any   { return b.Load().Value(i) }

func (b *LazyBlock) Region(offset, length int) Block {
	checkRegion(b.N, offset, length)
	return NewLazyBlock(length, func() Block { return b.Load().Region(offset, length) })
}

func (b *LazyBlock) Mask(positions []int) Block {
	pos := append([]int(nil), positions...)
	return NewLazyBlock(len(pos), func() Block { return b.Load().Mask(pos) })
}

func (b *LazyBlock) SizeBytes() int {
	if b.loaded != nil {
		return b.loaded.SizeBytes()
	}
	return 16
}

// ---------------------------------------------------------------------------
// Page

// Page is a batch of rows: one block per output channel, all the same length.
type Page struct {
	Blocks []Block
	N      int
}

// NewPage builds a page, validating that all blocks agree on row count.
func NewPage(blocks ...Block) *Page {
	n := 0
	if len(blocks) > 0 {
		n = blocks[0].Count()
	}
	for _, b := range blocks {
		if b.Count() != n {
			//lint:ignore hotalloc only evaluated on the panic path of a broken invariant
			panic(fmt.Sprintf("block: page block counts differ: %d vs %d", b.Count(), n))
		}
	}
	return &Page{Blocks: blocks, N: n}
}

// Count returns the number of rows.
func (p *Page) Count() int { return p.N }

// Region returns a view of rows [offset, offset+length).
func (p *Page) Region(offset, length int) *Page {
	blocks := make([]Block, len(p.Blocks))
	for i, b := range p.Blocks {
		blocks[i] = b.Region(offset, length)
	}
	return &Page{Blocks: blocks, N: length}
}

// Mask keeps only the given positions in all channels.
func (p *Page) Mask(positions []int) *Page {
	blocks := make([]Block, len(p.Blocks))
	for i, b := range p.Blocks {
		blocks[i] = b.Mask(positions)
	}
	return &Page{Blocks: blocks, N: len(positions)}
}

// SizeBytes estimates retained memory across all channels.
func (p *Page) SizeBytes() int {
	n := 0
	for _, b := range p.Blocks {
		n += b.SizeBytes()
	}
	return n
}

// Row returns row i boxed as []any, forcing lazy columns.
func (p *Page) Row(i int) []any {
	out := make([]any, len(p.Blocks))
	for c, b := range p.Blocks {
		out[c] = b.Value(i)
	}
	return out
}

// String renders a compact debug representation.
func (p *Page) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Page[%d rows x %d cols]", p.N, len(p.Blocks))
	return sb.String()
}
