package block

import (
	"fmt"

	"prestolite/internal/types"
)

// Builder accumulates values for one column and produces a Block.
type Builder interface {
	// Append adds a value boxed in the same convention as Block.Value;
	// nil appends SQL NULL.
	Append(v any)
	// AppendNull adds a NULL.
	AppendNull()
	// Len returns the number of appended positions.
	Len() int
	// Build finalizes the block. The builder must not be reused.
	Build() Block
}

// NewBuilder returns a Builder for the given type with capacity hint.
func NewBuilder(t *types.Type, capacity int) Builder {
	switch t.Kind {
	case types.KindBoolean:
		return &boolBuilder{values: make([]bool, 0, capacity)}
	case types.KindInteger, types.KindBigint, types.KindDate, types.KindUnknown:
		return &int64Builder{values: make([]int64, 0, capacity)}
	case types.KindDouble:
		return &float64Builder{values: make([]float64, 0, capacity)}
	case types.KindVarchar:
		return &varcharBuilder{values: make([]string, 0, capacity)}
	case types.KindArray:
		return &arrayBuilder{elem: NewBuilder(t.Elem, capacity), offsets: append(make([]int32, 0, capacity+1), 0)}
	case types.KindMap:
		return &mapBuilder{
			keys:    NewBuilder(t.Key, capacity),
			values:  NewBuilder(t.Value, capacity),
			offsets: append(make([]int32, 0, capacity+1), 0),
		}
	case types.KindRow:
		fields := make([]Builder, len(t.Fields))
		for i, f := range t.Fields {
			fields[i] = NewBuilder(f.Type, capacity)
		}
		return &rowBuilder{fields: fields}
	default:
		panic(fmt.Sprintf("block: no builder for type %v", t))
	}
}

type nullTracker struct {
	nulls   []bool
	anyNull bool
}

func (nt *nullTracker) mark(n int, isNull bool) {
	if isNull && !nt.anyNull {
		nt.anyNull = true
		nt.nulls = make([]bool, n)
	}
	if nt.anyNull {
		nt.nulls = append(nt.nulls, isNull)
	}
}

func (nt *nullTracker) build() []bool {
	if !nt.anyNull {
		return nil
	}
	return nt.nulls
}

type int64Builder struct {
	values []int64
	nt     nullTracker
}

func (b *int64Builder) Append(v any) {
	if v == nil {
		b.AppendNull()
		return
	}
	b.nt.mark(len(b.values), false)
	switch x := v.(type) {
	case int64:
		b.values = append(b.values, x)
	case int:
		b.values = append(b.values, int64(x))
	case int32:
		b.values = append(b.values, int64(x))
	default:
		panic(fmt.Sprintf("block: int64Builder got %T", v))
	}
}

func (b *int64Builder) AppendNull() {
	b.nt.mark(len(b.values), true)
	b.values = append(b.values, 0)
}

func (b *int64Builder) Len() int { return len(b.values) }

func (b *int64Builder) Build() Block {
	return &Int64Block{Values: b.values, Nulls: b.nt.build()}
}

type float64Builder struct {
	values []float64
	nt     nullTracker
}

func (b *float64Builder) Append(v any) {
	if v == nil {
		b.AppendNull()
		return
	}
	b.nt.mark(len(b.values), false)
	switch x := v.(type) {
	case float64:
		b.values = append(b.values, x)
	case int64:
		b.values = append(b.values, float64(x))
	case int:
		b.values = append(b.values, float64(x))
	default:
		panic(fmt.Sprintf("block: float64Builder got %T", v))
	}
}

func (b *float64Builder) AppendNull() {
	b.nt.mark(len(b.values), true)
	b.values = append(b.values, 0)
}

func (b *float64Builder) Len() int { return len(b.values) }

func (b *float64Builder) Build() Block {
	return &Float64Block{Values: b.values, Nulls: b.nt.build()}
}

type boolBuilder struct {
	values []bool
	nt     nullTracker
}

func (b *boolBuilder) Append(v any) {
	if v == nil {
		b.AppendNull()
		return
	}
	b.nt.mark(len(b.values), false)
	b.values = append(b.values, v.(bool))
}

func (b *boolBuilder) AppendNull() {
	b.nt.mark(len(b.values), true)
	b.values = append(b.values, false)
}

func (b *boolBuilder) Len() int { return len(b.values) }

func (b *boolBuilder) Build() Block {
	return &BoolBlock{Values: b.values, Nulls: b.nt.build()}
}

type varcharBuilder struct {
	values []string
	nt     nullTracker
}

func (b *varcharBuilder) Append(v any) {
	if v == nil {
		b.AppendNull()
		return
	}
	b.nt.mark(len(b.values), false)
	b.values = append(b.values, v.(string))
}

func (b *varcharBuilder) AppendNull() {
	b.nt.mark(len(b.values), true)
	b.values = append(b.values, "")
}

func (b *varcharBuilder) Len() int { return len(b.values) }

func (b *varcharBuilder) Build() Block {
	return &VarcharBlock{Values: b.values, Nulls: b.nt.build()}
}

type arrayBuilder struct {
	elem    Builder
	offsets []int32
	nt      nullTracker
	n       int
}

func (b *arrayBuilder) Append(v any) {
	if v == nil {
		b.AppendNull()
		return
	}
	items := v.([]any)
	for _, it := range items {
		b.elem.Append(it)
	}
	b.offsets = append(b.offsets, b.offsets[len(b.offsets)-1]+int32(len(items)))
	b.nt.mark(b.n, false)
	b.n++
}

func (b *arrayBuilder) AppendNull() {
	b.offsets = append(b.offsets, b.offsets[len(b.offsets)-1])
	b.nt.mark(b.n, true)
	b.n++
}

func (b *arrayBuilder) Len() int { return b.n }

func (b *arrayBuilder) Build() Block {
	return &ArrayBlock{Elements: b.elem.Build(), Offsets: b.offsets, Nulls: b.nt.build()}
}

type mapBuilder struct {
	keys    Builder
	values  Builder
	offsets []int32
	nt      nullTracker
	n       int
}

func (b *mapBuilder) Append(v any) {
	if v == nil {
		b.AppendNull()
		return
	}
	entries := v.([][2]any)
	for _, e := range entries {
		b.keys.Append(e[0])
		b.values.Append(e[1])
	}
	b.offsets = append(b.offsets, b.offsets[len(b.offsets)-1]+int32(len(entries)))
	b.nt.mark(b.n, false)
	b.n++
}

func (b *mapBuilder) AppendNull() {
	b.offsets = append(b.offsets, b.offsets[len(b.offsets)-1])
	b.nt.mark(b.n, true)
	b.n++
}

func (b *mapBuilder) Len() int { return b.n }

func (b *mapBuilder) Build() Block {
	return &MapBlock{Keys: b.keys.Build(), Values: b.values.Build(), Offsets: b.offsets, Nulls: b.nt.build()}
}

type rowBuilder struct {
	fields []Builder
	nt     nullTracker
	n      int
}

func (b *rowBuilder) Append(v any) {
	if v == nil {
		b.AppendNull()
		return
	}
	vals := v.([]any)
	if len(vals) != len(b.fields) {
		panic(fmt.Sprintf("block: rowBuilder got %d values for %d fields", len(vals), len(b.fields)))
	}
	for i, fv := range vals {
		b.fields[i].Append(fv)
	}
	b.nt.mark(b.n, false)
	b.n++
}

func (b *rowBuilder) AppendNull() {
	for _, f := range b.fields {
		f.AppendNull()
	}
	b.nt.mark(b.n, true)
	b.n++
}

func (b *rowBuilder) Len() int { return b.n }

func (b *rowBuilder) Build() Block {
	fields := make([]Block, len(b.fields))
	for i, f := range b.fields {
		fields[i] = f.Build()
	}
	return &RowBlock{Fields: fields, Nulls: b.nt.build(), N: b.n}
}

// PageBuilder accumulates rows across a fixed set of typed channels. It
// tracks the row count independently so zero-channel pages (count(*) scans)
// keep their cardinality.
type PageBuilder struct {
	builders []Builder
	typesOf  []*types.Type
	rows     int
}

// NewPageBuilder creates a builder for the given channel types.
func NewPageBuilder(channelTypes []*types.Type) *PageBuilder {
	pb := &PageBuilder{typesOf: channelTypes}
	pb.reset()
	return pb
}

func (pb *PageBuilder) reset() {
	pb.builders = make([]Builder, len(pb.typesOf))
	for i, t := range pb.typesOf {
		pb.builders[i] = NewBuilder(t, 64)
	}
}

// AppendRow appends one boxed value per channel.
func (pb *PageBuilder) AppendRow(row []any) {
	if len(row) != len(pb.builders) {
		panic(fmt.Sprintf("block: AppendRow got %d values for %d channels", len(row), len(pb.builders)))
	}
	for i, v := range row {
		pb.builders[i].Append(v)
	}
	pb.rows++
}

// Len returns the number of buffered rows.
func (pb *PageBuilder) Len() int { return pb.rows }

// Build produces the page and resets the builder for reuse.
func (pb *PageBuilder) Build() *Page {
	blocks := make([]Block, len(pb.builders))
	for i, b := range pb.builders {
		blocks[i] = b.Build()
	}
	page := &Page{Blocks: blocks, N: pb.rows}
	for _, b := range blocks {
		if b.Count() != pb.rows {
			//lint:ignore hotalloc only evaluated on the panic path of a broken invariant
			panic(fmt.Sprintf("block: page builder channel has %d rows, want %d", b.Count(), pb.rows))
		}
	}
	pb.rows = 0
	pb.reset()
	return page
}

// FromValues builds a single-column block of type t from boxed values.
func FromValues(t *types.Type, values ...any) Block {
	b := NewBuilder(t, len(values))
	for _, v := range values {
		b.Append(v)
	}
	return b.Build()
}

// SingleValue builds a one-position block holding v.
func SingleValue(t *types.Type, v any) Block { return FromValues(t, v) }
