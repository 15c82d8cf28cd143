package parquet

import (
	"bytes"
	"encoding/binary"
	//lint:ignore nogob ROADMAP item 12(d): the footer becomes a typed binary footer, bounded before allocation
	"encoding/gob"
	"fmt"
	"io"

	"prestolite/internal/block"
	"prestolite/internal/types"
)

var magic = []byte("PQL1")

// ChunkMeta locates one leaf's column chunk within a row group.
type ChunkMeta struct {
	LeafIndex  int
	DictOffset int64
	DictLen    int32
	DataOffset int64
	DataLen    int32
	NumEntries int64 // triplets (including nulls/empties)
	Dictionary bool
	// DictEntries is the dictionary's entry count, when Dictionary: at most
	// that many distinct values are present in the chunk.
	DictEntries int64
	Stats       Stats
}

// RowGroupMeta describes one horizontal partition.
type RowGroupMeta struct {
	NumRows int64
	Chunks  []ChunkMeta
}

// Chunk returns the chunk of leaf leafIndex, or nil.
func (rg *RowGroupMeta) Chunk(leafIndex int) *ChunkMeta {
	for i := range rg.Chunks {
		if rg.Chunks[i].LeafIndex == leafIndex {
			return &rg.Chunks[i]
		}
	}
	return nil
}

// FileMeta is the footer payload (Fig 3: file metadata + row group
// metadata).
type FileMeta struct {
	Names     []string
	TypeStrs  []string
	Codec     Codec
	RowGroups []RowGroupMeta
}

// WriterOptions configures both writers.
type WriterOptions struct {
	// Codec compresses page bodies (default none).
	Codec Codec
	// RowGroupRows bounds rows per row group (default 4096).
	RowGroupRows int
	// DisableDictionary turns dictionary encoding off.
	DisableDictionary bool
}

func (o WriterOptions) withDefaults() WriterOptions {
	if o.RowGroupRows <= 0 {
		o.RowGroupRows = 4096
	}
	return o
}

// ---------------------------------------------------------------------------
// chunkWriter accumulates one leaf's triplets for the current row group.

type chunkWriter struct {
	leaf *Leaf
	reps []uint8
	defs []uint8

	ints   []int64
	floats []float64
	bools  []bool
	strs   []string
	stats  Stats
}

func newChunkWriter(leaf *Leaf) *chunkWriter { return &chunkWriter{leaf: leaf} }

func (c *chunkWriter) reset() {
	c.reps = c.reps[:0]
	c.defs = c.defs[:0]
	c.ints = c.ints[:0]
	c.floats = c.floats[:0]
	c.bools = c.bools[:0]
	c.strs = c.strs[:0]
	c.stats = Stats{}
}

func (c *chunkWriter) addLevels(rep, def int) {
	if c.leaf.MaxRep > 0 {
		c.reps = append(c.reps, uint8(rep))
	}
	if c.leaf.MaxDef > 0 {
		c.defs = append(c.defs, uint8(def))
	}
}

func (c *chunkWriter) entries() int {
	if c.leaf.MaxDef > 0 {
		return len(c.defs)
	}
	return c.count()
}

func (c *chunkWriter) count() int {
	switch c.leaf.Node.Prim.Kind {
	case types.KindDouble:
		return len(c.floats)
	case types.KindBoolean:
		return len(c.bools)
	case types.KindVarchar:
		return len(c.strs)
	default:
		return len(c.ints)
	}
}

func (c *chunkWriter) addNull(rep, def int) {
	c.addLevels(rep, def)
	c.stats.NullCount++
}

func (c *chunkWriter) addInt64(rep int, v int64) {
	c.addLevels(rep, c.leaf.MaxDef)
	c.ints = append(c.ints, v)
	c.stats.updateInt(v)
	c.stats.NumValues++
}

func (c *chunkWriter) addFloat64(rep int, v float64) {
	c.addLevels(rep, c.leaf.MaxDef)
	c.floats = append(c.floats, v)
	c.stats.updateFloat(v)
	c.stats.NumValues++
}

func (c *chunkWriter) addBool(rep int, v bool) {
	c.addLevels(rep, c.leaf.MaxDef)
	c.bools = append(c.bools, v)
	if v {
		c.stats.updateInt(1)
	} else {
		c.stats.updateInt(0)
	}
	c.stats.NumValues++
}

func (c *chunkWriter) addString(rep int, v string) {
	c.addLevels(rep, c.leaf.MaxDef)
	c.strs = append(c.strs, v)
	c.stats.updateString(v)
	c.stats.NumValues++
}

func (c *chunkWriter) addBoxed(rep int, v any) error {
	switch c.leaf.Node.Prim.Kind {
	case types.KindDouble:
		switch x := v.(type) {
		case float64:
			c.addFloat64(rep, x)
		case int64:
			c.addFloat64(rep, float64(x))
		default:
			return fmt.Errorf("parquet: column %s expects double, got %T", c.leaf.Node.Path, v)
		}
	case types.KindBoolean:
		b, ok := v.(bool)
		if !ok {
			return fmt.Errorf("parquet: column %s expects boolean, got %T", c.leaf.Node.Path, v)
		}
		c.addBool(rep, b)
	case types.KindVarchar:
		s, ok := v.(string)
		if !ok {
			return fmt.Errorf("parquet: column %s expects varchar, got %T", c.leaf.Node.Path, v)
		}
		c.addString(rep, s)
	default:
		switch x := v.(type) {
		case int64:
			c.addInt64(rep, x)
		case int:
			c.addInt64(rep, int64(x))
		case int32:
			c.addInt64(rep, int64(x))
		default:
			return fmt.Errorf("parquet: column %s expects %s, got %T", c.leaf.Node.Path, c.leaf.Node.Prim, v)
		}
	}
	return nil
}

// serialize produces (dictPage, dataPage) bodies, uncompressed, and the
// dictionary's entry count: 0 when the chunk is plain.
func (c *chunkWriter) serialize(allowDict bool) (dict []byte, data []byte, dictEntries int, err error) {
	var enc valueEncoder
	enc.putUvarint(uint64(c.entries()))
	for _, r := range c.reps {
		enc.buf.WriteByte(r)
	}
	for _, d := range c.defs {
		enc.buf.WriteByte(d)
	}

	kind := c.leaf.Node.Prim.Kind
	n := c.count()
	if allowDict && n >= 8 && (kind == types.KindVarchar || kind == types.KindBigint || kind == types.KindInteger || kind == types.KindDate) {
		if dictPage, ids, ok := c.dictionaryEncode(n); ok {
			enc.buf.WriteByte(1) // dictionary-encoded data
			entries := 0         // ids are dense, in first-use order
			for _, id := range ids {
				enc.putUvarint(uint64(id))
				entries = max(entries, int(id)+1)
			}
			return dictPage, enc.buf.Bytes(), entries, nil
		}
	}

	enc.buf.WriteByte(0) // plain
	switch kind {
	case types.KindDouble:
		for _, v := range c.floats {
			enc.putFloat64(v)
		}
	case types.KindBoolean:
		for _, v := range c.bools {
			enc.putBool(v)
		}
	case types.KindVarchar:
		for _, v := range c.strs {
			enc.putString(v)
		}
	default:
		for _, v := range c.ints {
			enc.putInt64(v)
		}
	}
	return nil, enc.buf.Bytes(), 0, nil
}

// dictionaryEncode builds the chunk's dictionary page and one id per value,
// and reports whether the chunk should be written that way (dictionaryPays).
func (c *chunkWriter) dictionaryEncode(n int) (dictPage []byte, ids []uint32, ok bool) {
	ids = make([]uint32, n)
	var dict valueEncoder
	if c.leaf.Node.Prim.Kind == types.KindVarchar {
		index := map[string]uint32{}
		for i, v := range c.strs {
			id, seen := index[v]
			if !seen {
				id = uint32(len(index))
				index[v] = id
			}
			ids[i] = id
		}
		size := func(s string) int { return uvarintLen(uint64(len(s))) + len(s) }
		if !dictionaryPays(len(index), ids, func() (plain, entries int) {
			for _, s := range c.strs {
				plain += size(s)
			}
			for s := range index {
				entries += size(s)
			}
			return plain, entries
		}) {
			return nil, nil, false
		}
		ordered := make([]string, len(index))
		for s, id := range index {
			ordered[id] = s
		}
		dict.putUvarint(uint64(len(ordered)))
		for _, s := range ordered {
			dict.putString(s)
		}
	} else {
		index := map[int64]uint32{}
		for i, v := range c.ints {
			id, seen := index[v]
			if !seen {
				id = uint32(len(index))
				index[v] = id
			}
			ids[i] = id
		}
		size := func(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) } // zigzag, as binary.PutVarint
		if !dictionaryPays(len(index), ids, func() (plain, entries int) {
			for _, v := range c.ints {
				plain += size(v)
			}
			for v := range index {
				entries += size(v)
			}
			return plain, entries
		}) {
			return nil, nil, false
		}
		ordered := make([]int64, len(index))
		for v, id := range index {
			ordered[id] = v
		}
		dict.putUvarint(uint64(len(ordered)))
		for _, v := range ordered {
			dict.putInt64(v)
		}
	}
	return dict.buf.Bytes(), ids, true
}

// dictionaryPays decides whether a chunk of len(ids) values over distinct
// values is dictionary-encoded: when the dictionary has at most 4096 entries
// and either at most half as many entries as values, or a dictionary page
// and ids smaller than the plain values (parquet-mr's fallback, too, is
// decided by size). sizes returns the plain values' size and the entries'
// (each encoded plainly), and runs only when the ratio does not decide.
func dictionaryPays(distinct int, ids []uint32, sizes func() (plain, entries int)) bool {
	n := len(ids)
	switch {
	case distinct > 4096 || distinct == n: // every value distinct: never smaller
		return false
	case 2*distinct <= n:
		return true
	}
	plain, entries := sizes()
	encoded := uvarintLen(uint64(distinct)) + entries
	for _, id := range ids {
		encoded += uvarintLen(uint64(id))
	}
	return encoded < plain
}

// uvarintLen is the size of x as binary.PutUvarint writes it.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// ---------------------------------------------------------------------------
// fileWriter: shared row-group/footer machinery.

type fileWriter struct {
	w           io.Writer
	offset      int64
	schema      *Schema
	opts        WriterOptions
	chunks      []*chunkWriter
	rowsInGroup int64
	meta        FileMeta
	closed      bool
}

func newFileWriter(w io.Writer, schema *Schema, opts WriterOptions) (*fileWriter, error) {
	opts = opts.withDefaults()
	fw := &fileWriter{w: w, schema: schema, opts: opts}
	fw.meta.Codec = opts.Codec
	fw.meta.Names = schema.Names
	for _, t := range schema.Types {
		fw.meta.TypeStrs = append(fw.meta.TypeStrs, t.String())
	}
	for _, leaf := range schema.Leaves {
		fw.chunks = append(fw.chunks, newChunkWriter(leaf))
	}
	if err := fw.write(magic); err != nil {
		return nil, err
	}
	return fw, nil
}

func (fw *fileWriter) write(data []byte) error {
	n, err := fw.w.Write(data)
	fw.offset += int64(n)
	return err
}

func (fw *fileWriter) maybeFlush() error {
	if fw.rowsInGroup >= int64(fw.opts.RowGroupRows) {
		return fw.flushRowGroup()
	}
	return nil
}

func (fw *fileWriter) flushRowGroup() error {
	if fw.rowsInGroup == 0 {
		return nil
	}
	rg := RowGroupMeta{NumRows: fw.rowsInGroup}
	for _, cw := range fw.chunks {
		dict, data, dictEntries, err := cw.serialize(!fw.opts.DisableDictionary)
		if err != nil {
			return err
		}
		cm := ChunkMeta{
			LeafIndex:   cw.leaf.Index,
			NumEntries:  int64(cw.entries()),
			Dictionary:  dictEntries > 0,
			DictEntries: int64(dictEntries),
			Stats:       cw.stats,
		}
		if cm.Dictionary {
			comp, err := compress(fw.opts.Codec, dict)
			if err != nil {
				return err
			}
			cm.DictOffset = fw.offset
			cm.DictLen = int32(len(comp))
			if err := fw.write(comp); err != nil {
				return err
			}
		}
		comp, err := compress(fw.opts.Codec, data)
		if err != nil {
			return err
		}
		cm.DataOffset = fw.offset
		cm.DataLen = int32(len(comp))
		if err := fw.write(comp); err != nil {
			return err
		}
		rg.Chunks = append(rg.Chunks, cm)
		cw.reset()
	}
	fw.meta.RowGroups = append(fw.meta.RowGroups, rg)
	fw.rowsInGroup = 0
	return nil
}

// Close flushes the last row group and writes the footer.
func (fw *fileWriter) Close() error {
	if fw.closed {
		return nil
	}
	fw.closed = true
	if err := fw.flushRowGroup(); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&fw.meta); err != nil {
		return fmt.Errorf("parquet: encode footer: %w", err)
	}
	if err := fw.write(buf.Bytes()); err != nil {
		return err
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(buf.Len()))
	if err := fw.write(lenBuf[:]); err != nil {
		return err
	}
	return fw.write(magic)
}

// ---------------------------------------------------------------------------
// Shredders.

// shredValue walks a boxed value (the legacy, record-oriented path).
func (fw *fileWriter) shredValue(node *Node, v any, rep, def int) error {
	if v == nil {
		fw.shredNull(node, rep, def)
		return nil
	}
	switch node.Kind {
	case KindPrimitive:
		return fw.chunks[node.LeafIndex].addBoxed(rep, v)
	case KindStruct:
		fields, ok := v.([]any)
		if !ok || len(fields) != len(node.Children) {
			return fmt.Errorf("parquet: %s expects %d struct fields, got %T", node.Path, len(node.Children), v)
		}
		for i, child := range node.Children {
			if err := fw.shredValue(child, fields[i], rep, node.DefNotNull); err != nil {
				return err
			}
		}
		return nil
	case KindList:
		items, ok := v.([]any)
		if !ok {
			return fmt.Errorf("parquet: %s expects array, got %T", node.Path, v)
		}
		if len(items) == 0 {
			fw.shredEmpty(node, rep)
			return nil
		}
		for i, item := range items {
			r := rep
			if i > 0 {
				r = node.RepLevel
			}
			if err := fw.shredValue(node.Children[0], item, r, node.DefHasItems); err != nil {
				return err
			}
		}
		return nil
	case KindMap:
		entries, ok := v.([][2]any)
		if !ok {
			return fmt.Errorf("parquet: %s expects map, got %T", node.Path, v)
		}
		if len(entries) == 0 {
			fw.shredEmpty(node, rep)
			return nil
		}
		for i, e := range entries {
			r := rep
			if i > 0 {
				r = node.RepLevel
			}
			if e[0] == nil {
				return fmt.Errorf("parquet: %s has a NULL map key", node.Path)
			}
			if err := fw.shredValue(node.Children[0], e[0], r, node.DefHasItems); err != nil {
				return err
			}
			if err := fw.shredValue(node.Children[1], e[1], r, node.DefHasItems); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("parquet: bad node kind %d", node.Kind)
}

// shredNull records a null at this node for every descendant leaf.
func (fw *fileWriter) shredNull(node *Node, rep, def int) {
	if node.Kind == KindPrimitive {
		fw.chunks[node.LeafIndex].addNull(rep, def)
		return
	}
	for _, c := range node.Children {
		fw.shredNull(c, rep, def)
	}
}

// shredEmpty records a present-but-empty list/map.
func (fw *fileWriter) shredEmpty(node *Node, rep int) {
	for _, c := range node.Children {
		fw.shredNull(c, rep, node.DefNotNull)
	}
}

// shredBlock walks a block directly (the native, columnar path): no
// intermediate row records are materialized (§V.J).
func (fw *fileWriter) shredBlock(node *Node, blk block.Block, row, rep, def int) error {
	if blk.IsNull(row) {
		fw.shredNull(node, rep, def)
		return nil
	}
	switch node.Kind {
	case KindPrimitive:
		cw := fw.chunks[node.LeafIndex]
		switch b := blk.(type) {
		case *block.Int64Block:
			cw.addInt64(rep, b.Values[row])
			return nil
		case *block.Float64Block:
			cw.addFloat64(rep, b.Values[row])
			return nil
		case *block.BoolBlock:
			cw.addBool(rep, b.Values[row])
			return nil
		case *block.VarcharBlock:
			cw.addString(rep, b.Values[row])
			return nil
		default:
			return cw.addBoxed(rep, blk.Value(row))
		}
	case KindStruct:
		rb, ok := blk.(*block.RowBlock)
		if !ok {
			return fw.shredValue(node, blk.Value(row), rep, def)
		}
		for i, child := range node.Children {
			if err := fw.shredBlock(child, rb.Fields[i], row, rep, node.DefNotNull); err != nil {
				return err
			}
		}
		return nil
	case KindList:
		ab, ok := blk.(*block.ArrayBlock)
		if !ok {
			return fw.shredValue(node, blk.Value(row), rep, def)
		}
		start, end := int(ab.Offsets[row]), int(ab.Offsets[row+1])
		if start == end {
			fw.shredEmpty(node, rep)
			return nil
		}
		for i := start; i < end; i++ {
			r := rep
			if i > start {
				r = node.RepLevel
			}
			if err := fw.shredBlock(node.Children[0], ab.Elements, i, r, node.DefHasItems); err != nil {
				return err
			}
		}
		return nil
	case KindMap:
		mb, ok := blk.(*block.MapBlock)
		if !ok {
			return fw.shredValue(node, blk.Value(row), rep, def)
		}
		start, end := int(mb.Offsets[row]), int(mb.Offsets[row+1])
		if start == end {
			fw.shredEmpty(node, rep)
			return nil
		}
		for i := start; i < end; i++ {
			r := rep
			if i > start {
				r = node.RepLevel
			}
			if mb.Keys.IsNull(i) {
				return fmt.Errorf("parquet: %s has a NULL map key", node.Path)
			}
			if err := fw.shredBlock(node.Children[0], mb.Keys, i, r, node.DefHasItems); err != nil {
				return err
			}
			if err := fw.shredBlock(node.Children[1], mb.Values, i, r, node.DefHasItems); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("parquet: bad node kind %d", node.Kind)
}

// ---------------------------------------------------------------------------
// Public writers.

// NativeWriter writes engine pages directly from their columnar in-memory
// form to the columnar file format — data values, repetition values and
// definition values — without reconstructing records (§V.J).
type NativeWriter struct {
	fw *fileWriter
}

// NewNativeWriter creates a native writer.
func NewNativeWriter(w io.Writer, schema *Schema, opts WriterOptions) (*NativeWriter, error) {
	fw, err := newFileWriter(w, schema, opts)
	if err != nil {
		return nil, err
	}
	return &NativeWriter{fw: fw}, nil
}

// WritePage appends a page (one block per schema column).
func (nw *NativeWriter) WritePage(p *block.Page) error {
	if len(p.Blocks) != len(nw.fw.schema.Roots) {
		return fmt.Errorf("parquet: page has %d columns, schema has %d", len(p.Blocks), len(nw.fw.schema.Roots))
	}
	blocks := make([]block.Block, len(p.Blocks))
	for i, b := range p.Blocks {
		blocks[i] = block.Unwrap(b)
	}
	for row := 0; row < p.Count(); row++ {
		for col, node := range nw.fw.schema.Roots {
			if err := nw.fw.shredBlock(node, blocks[col], row, 0, 0); err != nil {
				return err
			}
		}
		nw.fw.rowsInGroup++
		if err := nw.fw.maybeFlush(); err != nil {
			return err
		}
	}
	return nil
}

// Close finalizes the file.
func (nw *NativeWriter) Close() error { return nw.fw.Close() }

// LegacyWriter is the old write path (§V.J): it "iterates each columnar
// block in a page and reconstructs every single record, then consumes each
// individual record and writes value bytes" — i.e. pages are first converted
// to boxed row records, then shredded. The on-disk output is identical to
// the native writer's; only the write path differs.
type LegacyWriter struct {
	fw *fileWriter
}

// NewLegacyWriter creates a legacy writer.
func NewLegacyWriter(w io.Writer, schema *Schema, opts WriterOptions) (*LegacyWriter, error) {
	fw, err := newFileWriter(w, schema, opts)
	if err != nil {
		return nil, err
	}
	return &LegacyWriter{fw: fw}, nil
}

// WritePage appends a page by reconstructing each record.
func (lw *LegacyWriter) WritePage(p *block.Page) error {
	if len(p.Blocks) != len(lw.fw.schema.Roots) {
		return fmt.Errorf("parquet: page has %d columns, schema has %d", len(p.Blocks), len(lw.fw.schema.Roots))
	}
	for row := 0; row < p.Count(); row++ {
		// Reconstruct the full boxed record: this is the overhead the native
		// writer eliminates.
		record := p.Row(row)
		for col, node := range lw.fw.schema.Roots {
			if err := lw.fw.shredValue(node, record[col], 0, 0); err != nil {
				return err
			}
		}
		lw.fw.rowsInGroup++
		if err := lw.fw.maybeFlush(); err != nil {
			return err
		}
	}
	return nil
}

// Close finalizes the file.
func (lw *LegacyWriter) Close() error { return lw.fw.Close() }
