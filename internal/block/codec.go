package block

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"prestolite/internal/frame"
)

// Pages cross the wire between workers and the coordinator (§III: stages
// stream pages through exchanges), go to spill files and sit in the result
// caches as one binary format: the pageFormat byte, then one frame (length +
// CRC32, internal/frame) holding the row count, the column count and the
// columns. A column is a kind tag, a null bitmap and typed little-endian
// buffers; its row count comes from its parent (the page, an array's last
// offset, a dictionary's size, 1 under a run length). Lazy and view blocks
// are resolved on the way out, but dictionary and run-length blocks (§V) go
// as they are whenever that is the smaller form. DESIGN.md has the layout.

const pageFormat byte = 0xB1 // magic and version in one: bump on any layout change

const (
	kindInt64      byte = iota + 1 // nulls, n x 8 bytes
	kindFloat64                    // nulls, n x 8 bytes (IEEE 754 bits)
	kindBool                       // nulls, value bitmap
	kindVarchar                    // nulls, n end offsets, one byte run
	kindArray                      // nulls, n end offsets, elements column
	kindMap                        // nulls, n end offsets, keys column, values column
	kindRow                        // nulls, field count, field columns
	kindDictionary                 // dictionary size, dictionary column, n x int32 ids (<0 = null)
	kindRunLength                  // one column of a single row, repeated n times
)

// maxNesting bounds how deep columns may nest inside one another, so a
// hostile frame cannot buy a stack frame per input byte.
const maxNesting = 32

// flatten converts encoded/lazy/view blocks into plain flat blocks.
func flatten(b Block) Block {
	b = Unwrap(b)
	if m, ok := b.(Materializer); ok {
		return flatten(m.Materialize())
	}
	switch t := b.(type) {
	case *DictionaryBlock:
		return flatten(t.Decode())
	case *RunLengthBlock:
		pos := make([]int, t.N)
		return flatten(t.Single.Mask(pos))
	case *ArrayBlock:
		return &ArrayBlock{Elements: flatten(t.Elements), Offsets: t.Offsets, Nulls: t.Nulls}
	case *MapBlock:
		return &MapBlock{Keys: flatten(t.Keys), Values: flatten(t.Values), Offsets: t.Offsets, Nulls: t.Nulls}
	case *RowBlock:
		fields := make([]Block, len(t.Fields))
		for i, f := range t.Fields {
			fields[i] = flatten(f)
		}
		return &RowBlock{Fields: fields, Nulls: t.Nulls, N: t.N}
	default:
		return b
	}
}

// MaterializePage forces lazy, view, dictionary and run-length blocks into
// flat blocks. Results leaving the engine for a client must not carry
// deferred loaders, and clients are promised flat columns.
func MaterializePage(p *Page) *Page {
	blocks := make([]Block, len(p.Blocks))
	for i, b := range p.Blocks {
		blocks[i] = flatten(b)
	}
	return &Page{Blocks: blocks, N: p.N}
}

// EncodePage serializes a page. Lazy columns load here, so a column that
// cannot be read is this call's error.
func EncodePage(p *Page) (data []byte, err error) {
	defer func() {
		if lerr := RecoveredLoadError(recover()); lerr != nil {
			data, err = nil, lerr
		}
	}()
	scratch := encodeScratch.Get().(*[]byte)
	dst := append((*scratch)[:0], pageFormat)
	dst = append(dst, make([]byte, frame.HeaderSize)...)
	dst = binary.AppendUvarint(dst, uint64(p.N))
	dst = binary.AppendUvarint(dst, uint64(len(p.Blocks)))
	for _, b := range p.Blocks {
		dst = appendColumn(dst, b)
	}
	if len(dst) > math.MaxUint32 {
		return nil, fmt.Errorf("block: encode page: %d bytes do not fit one frame", len(dst))
	}
	frame.Seal(dst[1:])
	data = slices.Clone(dst)
	*scratch = dst
	encodeScratch.Put(scratch)
	return data, nil
}

// encodeScratch holds the buffers pages are built in: the frame handed out is
// an exact-size copy, so a cached or queued frame retains what its length
// says and building one leaves no grown-and-abandoned buffers behind. (A
// buffer whose encode failed is simply not returned.)
var encodeScratch = sync.Pool{New: func() any { return new([]byte) }}

// extend grows dst by n bytes and returns it along with the new tail.
func extend(dst []byte, n int) (all, tail []byte) {
	dst = slices.Grow(dst, n)
	dst = dst[:len(dst)+n]
	return dst, dst[len(dst)-n:]
}

func appendBits(dst []byte, bits []bool) []byte {
	dst, tail := extend(dst, (len(bits)+7)/8)
	clear(tail)
	for i, v := range bits {
		if v {
			tail[i>>3] |= 1 << (i & 7)
		}
	}
	return dst
}

// appendNulls writes a presence byte and, only when some position is null,
// the bitmap.
func appendNulls(dst []byte, nulls []bool) []byte {
	if !slices.Contains(nulls, true) {
		return append(dst, 0)
	}
	return appendBits(append(dst, 1), nulls)
}

// appendOffsets writes the end offset of every row relative to the first
// row's start, and returns the window of the child block the rows cover (a
// Region of an array shares its parent's elements).
func appendOffsets(dst []byte, offs []int32) (out []byte, first, count int) {
	if len(offs) == 0 {
		return dst, 0, 0
	}
	base := offs[0]
	dst, tail := extend(dst, 4*(len(offs)-1))
	for i, o := range offs[1:] {
		binary.LittleEndian.PutUint32(tail[4*i:], uint32(o-base))
	}
	return dst, int(base), int(offs[len(offs)-1] - base)
}

func window(b Block, offset, length int) Block {
	if offset == 0 && length == b.Count() {
		return b
	}
	return b.Region(offset, length)
}

func appendColumn(dst []byte, b Block) []byte {
	switch t := Unwrap(b).(type) {
	case *Int64Block:
		dst = appendNulls(append(dst, kindInt64), t.Nulls)
		dst, tail := extend(dst, 8*len(t.Values))
		for i, v := range t.Values {
			binary.LittleEndian.PutUint64(tail[8*i:], uint64(v))
		}
		return dst
	case *Float64Block:
		dst = appendNulls(append(dst, kindFloat64), t.Nulls)
		dst, tail := extend(dst, 8*len(t.Values))
		for i, v := range t.Values {
			binary.LittleEndian.PutUint64(tail[8*i:], math.Float64bits(v))
		}
		return dst
	case *BoolBlock:
		return appendBits(appendNulls(append(dst, kindBool), t.Nulls), t.Values)
	case *VarcharBlock:
		dst = appendNulls(append(dst, kindVarchar), t.Nulls)
		dst, tail := extend(dst, 4*len(t.Values))
		end := 0
		for i, s := range t.Values {
			end += len(s)
			binary.LittleEndian.PutUint32(tail[4*i:], uint32(end))
		}
		dst = slices.Grow(dst, end)
		for _, s := range t.Values {
			dst = append(dst, s...)
		}
		return dst
	case *ArrayBlock:
		dst, first, count := appendOffsets(appendNulls(append(dst, kindArray), t.Nulls), t.Offsets)
		return appendColumn(dst, window(t.Elements, first, count))
	case *MapBlock:
		dst, first, count := appendOffsets(appendNulls(append(dst, kindMap), t.Nulls), t.Offsets)
		dst = appendColumn(dst, window(t.Keys, first, count))
		return appendColumn(dst, window(t.Values, first, count))
	case *RowBlock:
		dst = appendNulls(append(dst, kindRow), t.Nulls)
		dst = binary.AppendUvarint(dst, uint64(len(t.Fields)))
		for _, f := range t.Fields {
			dst = appendColumn(dst, f)
		}
		return dst
	case *DictionaryBlock:
		if t.Dictionary.Count() > len(t.Ids) {
			// What a filter leaves of a dictionary column: gathering the
			// survivors is smaller than shipping every distinct value.
			return appendColumn(dst, t.Decode())
		}
		dst = binary.AppendUvarint(append(dst, kindDictionary), uint64(t.Dictionary.Count()))
		dst = appendColumn(dst, t.Dictionary)
		dst, tail := extend(dst, 4*len(t.Ids))
		for i, id := range t.Ids {
			binary.LittleEndian.PutUint32(tail[4*i:], uint32(id))
		}
		return dst
	case *RunLengthBlock:
		if t.N < 2 {
			return appendColumn(dst, t.Single.Mask(make([]int, t.N)))
		}
		return appendColumn(append(dst, kindRunLength), t.Single)
	case Materializer:
		return appendColumn(dst, t.Materialize())
	default:
		panic(fmt.Sprintf("block: cannot encode %T", t))
	}
}

// DecodePage deserializes what EncodePage wrote. Any other input — a
// flipped bit, a truncation, trailing bytes — is an error, never a page with
// different values; and every length is checked against the bytes that are
// left before anything is allocated, so a hostile frame cannot make the
// decoder allocate more than a small multiple of its own size.
func DecodePage(data []byte) (*Page, error) {
	payload, err := pagePayload(data)
	if err != nil {
		return nil, err
	}
	r := pageReader{b: payload}
	rows := r.count()
	blocks := make([]Block, r.children())
	for i := range blocks {
		blocks[i] = r.column(rows, 0)
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail("trailing bytes")
	}
	if r.err != nil {
		return nil, r.err
	}
	return &Page{Blocks: blocks, N: rows}, nil
}

// pagePayload checks that data is exactly one page frame — the format byte,
// the announced length, the checksum — and returns what the frame holds.
func pagePayload(data []byte) ([]byte, error) {
	if len(data) == 0 || data[0] != pageFormat {
		return nil, errors.New("block: decode page: not a page frame")
	}
	payload, n, ok := frame.Next(data[1:])
	if !ok || n != len(data)-1 {
		return nil, errors.New("block: decode page: short or corrupt frame")
	}
	return payload, nil
}

// pageReader is a cursor over one frame payload; the first error sticks and
// empties the input, so every later read fails without allocating.
type pageReader struct {
	b   []byte
	err error
}

func (r *pageReader) fail(what string) {
	if r.err == nil {
		r.err = errors.New("block: decode page: bad " + what)
	}
	r.b = nil
}

func (r *pageReader) take(n int) []byte {
	if n > len(r.b) {
		r.fail("length")
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *pageReader) byteVal() byte {
	if b := r.take(1); len(b) == 1 {
		return b[0]
	}
	return 0
}

// count reads a row, column or dictionary count. Offsets are int32, so no
// count is larger.
func (r *pageReader) count() int {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || v > math.MaxInt32 {
		r.fail("count")
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

// children reads how many columns follow; each is at least its kind byte.
func (r *pageReader) children() int {
	n := r.count()
	if n > len(r.b) {
		r.fail("column count")
		return 0
	}
	return n
}

func (r *pageReader) bits(n int) []bool {
	raw := r.take((n + 7) / 8)
	if r.err != nil {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = raw[i>>3]&(1<<(i&7)) != 0
	}
	return out
}

func (r *pageReader) nulls(n int) []bool {
	switch r.byteVal() {
	case 0:
		return nil
	case 1:
		return r.bits(n)
	}
	r.fail("null marker")
	return nil
}

// offsets reads n end offsets into the n+1 offsets of a nested block.
func (r *pageReader) offsets(n int) []int32 {
	raw := r.take(4 * n)
	if r.err != nil {
		return nil
	}
	offs := make([]int32, n+1)
	for i := 0; i < n; i++ {
		end := int32(binary.LittleEndian.Uint32(raw[4*i:]))
		if end < offs[i] {
			r.fail("offsets")
			return nil
		}
		offs[i+1] = end
	}
	return offs
}

// column reads one column of n rows. On an error the result is not a usable
// block; DecodePage discards it.
func (r *pageReader) column(n, depth int) Block {
	if depth > maxNesting {
		r.fail("nesting")
	}
	switch kind := r.byteVal(); kind {
	case kindInt64, kindFloat64:
		nulls := r.nulls(n)
		raw := r.take(8 * n)
		if r.err != nil {
			return nil
		}
		if kind == kindFloat64 {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
			return &Float64Block{Values: vals, Nulls: nulls}
		}
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		return &Int64Block{Values: vals, Nulls: nulls}
	case kindBool:
		nulls := r.nulls(n)
		return &BoolBlock{Values: r.bits(n), Nulls: nulls}
	case kindVarchar:
		nulls := r.nulls(n)
		offs := r.offsets(n)
		if r.err != nil {
			return nil
		}
		run := string(r.take(int(offs[n])))
		if r.err != nil {
			return nil
		}
		vals := make([]string, n)
		for i := range vals {
			vals[i] = run[offs[i]:offs[i+1]]
		}
		return &VarcharBlock{Values: vals, Nulls: nulls}
	case kindArray, kindMap:
		nulls := r.nulls(n)
		offs := r.offsets(n)
		if r.err != nil {
			return nil
		}
		first := r.column(int(offs[n]), depth+1)
		if kind == kindArray {
			return &ArrayBlock{Elements: first, Offsets: offs, Nulls: nulls}
		}
		return &MapBlock{Keys: first, Values: r.column(int(offs[n]), depth+1), Offsets: offs, Nulls: nulls}
	case kindRow:
		nulls := r.nulls(n)
		fields := make([]Block, r.children())
		for i := range fields {
			fields[i] = r.column(n, depth+1)
		}
		return &RowBlock{Fields: fields, Nulls: nulls, N: n}
	case kindDictionary:
		size := r.count()
		dict := r.column(size, depth+1)
		raw := r.take(4 * n)
		if r.err != nil {
			return nil
		}
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
			if int(ids[i]) >= size {
				r.fail("dictionary id")
				return nil
			}
		}
		return &DictionaryBlock{Dictionary: dict, Ids: ids}
	case kindRunLength:
		return &RunLengthBlock{Single: r.column(1, depth+1), N: n}
	}
	r.fail("column kind")
	return nil
}
