package parquet

import (
	"bytes"
	"encoding/binary"
	//lint:ignore nogob ROADMAP item 12(d): the footer becomes a typed binary footer, bounded before allocation
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"

	"prestolite/internal/fsys"
	"prestolite/internal/types"
)

// ReadFooter parses the file footer (Fig 3), reconstructs the schema and
// checks what the footer says of the row groups against the file: the readers
// plan their reads from a footer this function returned, without looking at
// the ranges again.
func ReadFooter(f fsys.File) (*FileMeta, *Schema, error) {
	size := f.Size()
	if size < int64(2*len(magic)+4) {
		return nil, nil, fmt.Errorf("parquet: file too small (%d bytes)", size)
	}
	tail := make([]byte, 8)
	if _, err := f.ReadAt(tail, size-8); err != nil {
		return nil, nil, fmt.Errorf("parquet: reading footer tail: %w", err)
	}
	if !bytes.Equal(tail[4:], magic) {
		return nil, nil, fmt.Errorf("parquet: bad trailing magic %q", tail[4:])
	}
	footerLen := int64(binary.LittleEndian.Uint32(tail[:4]))
	if footerLen <= 0 || footerLen > size-int64(2*len(magic)+4) {
		return nil, nil, fmt.Errorf("parquet: bad footer length %d", footerLen)
	}
	footer := make([]byte, footerLen)
	if _, err := f.ReadAt(footer, size-8-footerLen); err != nil {
		return nil, nil, fmt.Errorf("parquet: reading footer: %w", err)
	}
	var meta FileMeta
	if err := gob.NewDecoder(bytes.NewReader(footer)).Decode(&meta); err != nil {
		return nil, nil, fmt.Errorf("parquet: decode footer: %w", err)
	}
	colTypes := make([]*types.Type, len(meta.TypeStrs))
	for i, s := range meta.TypeStrs {
		t, err := types.Parse(s)
		if err != nil {
			return nil, nil, fmt.Errorf("parquet: footer schema: %w", err)
		}
		colTypes[i] = t
	}
	schema, err := NewSchema(meta.Names, colTypes)
	if err != nil {
		return nil, nil, err
	}
	for i, name := range meta.Names {
		// Readers find columns by name, case-insensitively and by dotted path.
		if schema.Resolve(name) != schema.Roots[i] {
			return nil, nil, fmt.Errorf("parquet: footer schema: column name %q is ambiguous", name)
		}
	}
	if err := checkRowGroups(&meta, schema, size); err != nil {
		return nil, nil, err
	}
	return &meta, schema, nil
}

// ---------------------------------------------------------------------------
// Column chunk decoding.

// chunkData is a decoded leaf chunk: level streams plus typed values.
type chunkData struct {
	leaf *Leaf
	reps []uint8 // nil when MaxRep == 0
	defs []uint8 // nil when MaxDef == 0

	// The typed values, one per present entry; for a dictionary-encoded
	// chunk, the dictionary's entries instead, which ids index.
	ints   []int64
	floats []float64
	bools  []bool
	strs   []string
	// ids holds, when the chunk is dictionary-encoded, one dictionary index
	// per present entry.
	ids []int32
	// present counts the entries with a value (def == MaxDef), once, when
	// the chunk is decoded.
	present int
	// valueIdx and indexed belong to valueIndex.
	valueIdx []int32
	indexed  bool
	entries  int
}

// valueAt boxes present value i (the nested assembly and the legacy reader),
// reading a dictionary-encoded chunk through its ids.
func (c *chunkData) valueAt(i int) any {
	if c.ids != nil {
		i = int(c.ids[i])
	}
	switch c.leaf.Node.Prim.Kind {
	case types.KindDouble:
		return c.floats[i]
	case types.KindBoolean:
		return c.bools[i]
	case types.KindVarchar:
		return c.strs[i]
	default:
		return c.ints[i]
	}
}

// ChunkCache is the worker-local data cache contract (tier 1 of the §VII
// hierarchy): decompressed column-chunk bodies keyed by file path, leaf
// column path, row group ordinal and page kind (data vs dictionary).
// Implementations must treat returned slices as shared and read-only; the
// reader never mutates a cached body. Defined here (and satisfied by
// internal/cache.ChunkCache) so parquet does not depend on the cache
// package.
type ChunkCache interface {
	GetChunk(path, column string, rowGroup int, dict bool) ([]byte, bool)
	PutChunk(path, column string, rowGroup int, dict bool, body []byte)
}

// pages is one contiguous run of a column chunk in the file — its data pages
// or its dictionary page — on the way from a byte range to a decompressed
// body. The I/O plan fills it in two steps: the chunk cache is asked once
// (chunkFetch.lookup), and what it did not hold is read as part of a
// byteRange.
type pages struct {
	leaf *Leaf
	dict bool
	off  int64
	n    int

	raw    []byte // bytes of the file, set when the read covering them lands
	body   []byte // decompressed: the cache's, or raw's at first use
	cached bool   // the chunk cache holds body already
	shared bool   // raw is a window on a read that covered other runs too
}

func (p *pages) String() string {
	if p.dict {
		return "dictionary of " + p.leaf.Node.Path
	}
	return "chunk " + p.leaf.Node.Path
}

// open returns the run's decompressed body.
func (p *pages) open(codec Codec) ([]byte, error) {
	if p.body == nil {
		body, err := decompress(codec, p.raw)
		if err != nil {
			return nil, err
		}
		p.body, p.raw = body, nil
	}
	return p.body, nil
}

// chunkBytes is one leaf chunk of one row group in the I/O plan.
type chunkBytes struct {
	cm   *ChunkMeta
	data pages
	dict pages // only when cm.Dictionary
	// entries is the dictionary page decoded, by whichever of the
	// dictionary-pushdown probe and the chunk's decode needs it first.
	entries *dictionary
}

func newChunkBytes(cm *ChunkMeta, leaf *Leaf) chunkBytes {
	cb := chunkBytes{cm: cm, data: pages{leaf: leaf, off: cm.DataOffset, n: int(cm.DataLen)}}
	if cm.Dictionary {
		cb.dict = pages{leaf: leaf, dict: true, off: cm.DictOffset, n: int(cm.DictLen)}
	}
	return cb
}

// size is what the chunk occupies in the file.
func (cb *chunkBytes) size() int64 { return int64(cb.data.n + cb.dict.n) }

// runs calls visit on the chunk's page runs in file order.
func (cb *chunkBytes) runs(visit func(*pages)) {
	if cb.cm.Dictionary {
		visit(&cb.dict)
	}
	visit(&cb.data)
}

// chunkFetch keys one row group's chunks in the data cache. The zero value
// is the uncached baseline: every lookup misses and nothing is kept.
type chunkFetch struct {
	cache    ChunkCache
	path     string
	rowGroup int
}

// lookup asks the cache for p's body: a hit skips both the read and the
// decompression, the two costs the Alluxio-style local cache exists to
// remove. Each run is looked up once, when its batch is planned.
func (cf chunkFetch) lookup(p *pages) bool {
	if cf.cache == nil {
		return false
	}
	p.body, p.cached = cf.cache.GetChunk(cf.path, p.leaf.Node.Path, cf.rowGroup, p.dict)
	return p.cached
}

// keep caches a body that was read from the file, once the caller has
// decoded it: a corrupt read fails one query instead of being served from the
// cache to every later one.
func (cf chunkFetch) keep(p *pages, codec Codec) {
	if cf.cache == nil || p.cached {
		return
	}
	body := p.body
	if p.shared && codec == CodecNone {
		// Uncompressed, the body is the bytes read themselves: caching the
		// window would pin the whole read beyond what the cache accounts.
		body = bytes.Clone(body)
	}
	cf.cache.PutChunk(cf.path, p.leaf.Node.Path, cf.rowGroup, p.dict, body)
	p.cached = true
}

// byteRange is one read of the I/O plan: page runs that touch in the file
// and were not in the cache. Gaps are never bridged, so a plan reads exactly
// the bytes the page-at-a-time reader did, in fewer calls.
type byteRange struct {
	off  int64
	n    int
	runs []*pages
	done chan struct{} // closed when the read has landed or failed
	err  error
}

func newByteRange(p *pages) *byteRange {
	return &byteRange{off: p.off, n: p.n, runs: []*pages{p}, done: make(chan struct{})}
}

// extend adds p when it starts where the range ends.
func (g *byteRange) extend(p *pages) bool {
	if g.off+int64(g.n) != p.off {
		return false
	}
	g.n += p.n
	g.runs = append(g.runs, p)
	return true
}

func (g *byteRange) read(f fsys.File) {
	defer close(g.done)
	buf := make([]byte, g.n)
	if _, err := f.ReadAt(buf, g.off); err != nil {
		what := g.runs[0].String()
		if len(g.runs) > 1 {
			what += " to " + g.runs[len(g.runs)-1].String()
		}
		g.err = fmt.Errorf("parquet: reading %s: %w", what, err)
		return
	}
	for _, p := range g.runs {
		at := int(p.off - g.off)
		p.raw, p.shared = buf[at:at+p.n:at+p.n], len(g.runs) > 1
	}
}

// waitRanges blocks until every range has landed and returns the first
// failure.
func waitRanges(ranges []*byteRange) error {
	for _, g := range ranges {
		<-g.done
		if g.err != nil {
			return g.err
		}
	}
	return nil
}

// fetchConcurrency bounds the reads one fetch keeps in flight: the number of
// ranges comes from the footer, the number of goroutines must not.
const fetchConcurrency = 16

// fetcher reads byte ranges of one file. It is the only place chunk bytes
// are read, for the columnar and the legacy reader alike, and it owns the
// file: close returns the handle only after the last read in flight landed.
type fetcher struct {
	f        fsys.File
	m        *Metrics
	inflight sync.WaitGroup
}

// fetch starts reading ranges; each range's done channel says when it has
// landed. A single range is read inline on the caller's goroutine (nothing
// to overlap, no goroutine to start); several are read concurrently —
// io.ReaderAt allows parallel ReadAt — so a batch costs one storage round
// trip instead of one per range.
func (ft *fetcher) fetch(ranges []*byteRange) {
	if len(ranges) == 0 {
		return
	}
	var total int64
	for _, g := range ranges {
		total += int64(g.n)
	}
	ft.m.FetchBatches.Add(1)
	ft.m.RangesRead.Add(int64(len(ranges)))
	ft.m.BytesRead.Add(total)
	if len(ranges) == 1 {
		ranges[0].read(ft.f)
		return
	}
	workers := min(len(ranges), fetchConcurrency)
	next := new(atomic.Int64)
	ft.inflight.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer ft.inflight.Done()
			for i := next.Add(1) - 1; i < int64(len(ranges)); i = next.Add(1) - 1 {
				ranges[i].read(ft.f)
			}
		}()
	}
}

// close waits for the reads in flight, then closes the file: no goroutine
// of the reader outlives it.
func (ft *fetcher) close() error {
	ft.inflight.Wait()
	return ft.f.Close()
}

// checkRowGroups validates what the footer says of every row group against
// the file, once per footer: a chunk outside the file or with a negative
// length is an error here instead of a panic or a short read per query, and a
// row count the chunk bytes cannot hold is an error before anything is
// allocated for it.
func checkRowGroups(meta *FileMeta, schema *Schema, size int64) error {
	expand := maxExpansion(meta.Codec)
	outside := func(off int64, n int32) bool { return off < 0 || n <= 0 || int64(n) > size-off }
	for i := range meta.RowGroups {
		rg := &meta.RowGroups[i]
		if rg.NumRows <= 0 || len(rg.Chunks) == 0 { // the writers flush no empty row group
			return fmt.Errorf("parquet: row group %d claims %d rows in %d chunks", i, rg.NumRows, len(rg.Chunks))
		}
		for j := range rg.Chunks {
			cm := &rg.Chunks[j]
			// One chunk per leaf, in leaf order, which is file order.
			if cm.LeafIndex < 0 || cm.LeafIndex >= len(schema.Leaves) || (j > 0 && cm.LeafIndex <= rg.Chunks[j-1].LeafIndex) {
				return fmt.Errorf("parquet: row group %d has a chunk for leaf %d of %d out of order", i, cm.LeafIndex, len(schema.Leaves))
			}
			leaf := schema.Leaves[cm.LeafIndex]
			if outside(cm.DataOffset, cm.DataLen) || (cm.Dictionary && outside(cm.DictOffset, cm.DictLen)) {
				return fmt.Errorf("parquet: chunk %s of row group %d lies outside the file (data %d+%d, dictionary %d+%d, size %d)",
					leaf.Node.Path, i, cm.DataOffset, cm.DataLen, cm.DictOffset, cm.DictLen, size)
			}
			// Every entry takes at least a byte of the decompressed body, a
			// record at least an entry, and exactly one in a flat column.
			if cm.NumEntries > int64(cm.DataLen)*expand || cm.NumEntries < rg.NumRows || (leaf.MaxRep == 0 && cm.NumEntries != rg.NumRows) {
				return fmt.Errorf("parquet: chunk %s of row group %d claims %d entries for %d rows in %d bytes",
					leaf.Node.Path, i, cm.NumEntries, rg.NumRows, cm.DataLen)
			}
		}
	}
	return nil
}

// dictionary is a decoded dictionary page: its entries as the leaf's kind
// stores them (varchar in strs, the integer kinds in ints; the writer
// dictionary-encodes no other kind).
type dictionary struct {
	ints []int64
	strs []string
}

// readDictionary decodes the dictionary page of a dictionary-encoded chunk,
// once per chunk read: the dictionary-pushdown probe (§V.G) and the chunk's
// decode share the result. A varchar dictionary is one string copy of the
// page body, every entry a substring of it.
func (cb *chunkBytes) readDictionary(codec Codec, cf chunkFetch) (*dictionary, error) {
	if cb.entries != nil {
		return cb.entries, nil
	}
	leaf := cb.data.leaf
	if !cb.cm.Dictionary {
		return nil, fmt.Errorf("parquet: chunk %s dict-encoded without dictionary page", leaf.Node.Path)
	}
	if k := leaf.Node.Prim.Kind; k == types.KindDouble || k == types.KindBoolean {
		return nil, fmt.Errorf("parquet: chunk %s is dictionary-encoded, which its type never is", leaf.Node.Path)
	}
	body, err := cb.dict.open(codec)
	if err != nil {
		return nil, err
	}
	n, pos := binary.Uvarint(body)
	if pos <= 0 {
		return nil, fmt.Errorf("parquet: bad dictionary size in %s", leaf.Node.Path)
	}
	if n > uint64(len(body)) { // every entry takes at least a byte
		return nil, fmt.Errorf("parquet: dictionary of %s claims %d entries in %d bytes", leaf.Node.Path, n, len(body))
	}
	d := &dictionary{}
	if leaf.Node.Prim.Kind == types.KindVarchar {
		all := string(body[pos:])
		d.strs = make([]string, n)
		at := 0 // into all
		for i := range d.strs {
			size, k := binary.Uvarint(body[pos+at:])
			if k <= 0 || size > uint64(len(all)-at-k) {
				return nil, fmt.Errorf("parquet: dictionary of %s: entry %d runs past the page", leaf.Node.Path, i)
			}
			at += k
			d.strs[i] = all[at : at+int(size)]
			at += int(size)
		}
	} else {
		d.ints = make([]int64, n)
		for i := range d.ints {
			v, k := binary.Varint(body[pos:])
			if k <= 0 {
				return nil, fmt.Errorf("parquet: dictionary of %s: bad varint at entry %d", leaf.Node.Path, i)
			}
			d.ints[i] = v
			pos += k
		}
	}
	cf.keep(&cb.dict, codec)
	cb.entries = d
	return d, nil
}

// size is the number of entries.
func (d *dictionary) size() int { return len(d.ints) + len(d.strs) }

// decodeChunk decodes one fetched leaf chunk fully.
//
// vectorized selects the batched triplet decoder (§V.I) for plain values:
// they are decoded in batches of 1000 with decoder state kept in locals
// ("registers"), and a direct path for non-nullable non-nested columns. The
// scalar path decodes one value per loop iteration, re-checking stream
// state each time. A dictionary-encoded chunk decodes the same way for
// both: its dictionary once, then its ids in one loop, never expanded.
func decodeChunk(cb *chunkBytes, codec Codec, vectorized bool, cf chunkFetch) (*chunkData, error) {
	body, err := cb.data.open(codec)
	if err != nil {
		return nil, err
	}
	cd, err := decodeChunkBody(body, cb, codec, vectorized, cf)
	if err != nil {
		return nil, err
	}
	cf.keep(&cb.data, codec)
	return cd, nil
}

func decodeChunkBody(body []byte, cb *chunkBytes, codec Codec, vectorized bool, cf chunkFetch) (*chunkData, error) {
	leaf := cb.data.leaf
	dec := &valueDecoder{data: body}
	n64, err := dec.uvarint()
	if err != nil {
		return nil, err
	}
	// The footer's count was checked against the row group when the reader
	// opened (checkRowGroups); the chunk has to agree with its footer.
	if n64 != uint64(cb.cm.NumEntries) || n64 > uint64(len(body)) { // every entry has at least a level byte
		return nil, fmt.Errorf("parquet: chunk %s holds %d entries in %d bytes, its footer says %d", leaf.Node.Path, n64, len(body), cb.cm.NumEntries)
	}
	n := int(n64)
	cd := &chunkData{leaf: leaf, entries: n}
	if leaf.MaxRep > 0 {
		if dec.pos+n > len(body) {
			return nil, fmt.Errorf("parquet: truncated rep levels in %s", leaf.Node.Path)
		}
		cd.reps = body[dec.pos : dec.pos+n]
		dec.pos += n
	}
	if leaf.MaxDef > 0 {
		if dec.pos+n > len(body) {
			return nil, fmt.Errorf("parquet: truncated def levels in %s", leaf.Node.Path)
		}
		cd.defs = body[dec.pos : dec.pos+n]
		dec.pos += n
	}
	if dec.pos >= len(body) {
		return nil, fmt.Errorf("parquet: truncated chunk %s", leaf.Node.Path)
	}
	encoding := body[dec.pos]
	dec.pos++

	cd.present = n
	if cd.defs != nil {
		cd.present = bytes.Count(cd.defs, []byte{uint8(leaf.MaxDef)})
	}

	if encoding == 1 {
		dict, err := cb.readDictionary(codec, cf)
		if err != nil {
			return nil, err
		}
		return decodeDictChunk(cd, dec, dict)
	}
	return decodePlainChunk(cd, dec, vectorized)
}

func decodePlainChunk(cd *chunkData, dec *valueDecoder, vectorized bool) (*chunkData, error) {
	numValues := cd.present
	kind := cd.leaf.Node.Prim.Kind
	if vectorized {
		// Batched decode: values land directly in the typed slice with one
		// bounds check per batch of 1000.
		switch kind {
		case types.KindDouble:
			cd.floats = make([]float64, numValues)
			for i := 0; i < numValues; {
				end := i + 1000
				if end > numValues {
					end = numValues
				}
				for ; i < end; i++ {
					v, err := dec.float64()
					if err != nil {
						return nil, err
					}
					cd.floats[i] = v
				}
			}
		case types.KindBoolean:
			cd.bools = make([]bool, numValues)
			for i := 0; i < numValues; i++ {
				v, err := dec.bool()
				if err != nil {
					return nil, err
				}
				cd.bools[i] = v
			}
		case types.KindVarchar:
			cd.strs = make([]string, numValues)
			for i := 0; i < numValues; i++ {
				v, err := dec.string()
				if err != nil {
					return nil, err
				}
				cd.strs[i] = v
			}
		default:
			cd.ints = make([]int64, numValues)
			data, pos := dec.data, dec.pos
			for i := 0; i < numValues; i++ {
				v, n := binary.Varint(data[pos:])
				if n <= 0 {
					return nil, fmt.Errorf("parquet: bad varint in %s", cd.leaf.Node.Path)
				}
				cd.ints[i] = v
				pos += n
			}
			dec.pos = pos
		}
		return cd, nil
	}
	// Scalar path: append one value at a time.
	for i := 0; i < numValues; i++ {
		switch kind {
		case types.KindDouble:
			v, err := dec.float64()
			if err != nil {
				return nil, err
			}
			cd.floats = append(cd.floats, v)
		case types.KindBoolean:
			v, err := dec.bool()
			if err != nil {
				return nil, err
			}
			cd.bools = append(cd.bools, v)
		case types.KindVarchar:
			v, err := dec.string()
			if err != nil {
				return nil, err
			}
			cd.strs = append(cd.strs, v)
		default:
			v, err := dec.int64()
			if err != nil {
				return nil, err
			}
			cd.ints = append(cd.ints, v)
		}
	}
	return cd, nil
}

// decodeDictChunk decodes the ids of a dictionary-encoded chunk, one per
// present entry, in one loop, and keeps them beside the dictionary instead of
// expanding them into values.
func decodeDictChunk(cd *chunkData, dec *valueDecoder, dict *dictionary) (*chunkData, error) {
	size := uint64(dict.size())
	ids := make([]int32, cd.present)
	data, pos := dec.data, dec.pos
	for i := range ids {
		var id uint64
		switch {
		case pos < len(data) && data[pos] < 0x80: // an id under 128 is one byte
			id = uint64(data[pos])
			pos++
		case pos+1 < len(data) && data[pos+1] < 0x80: // under 16384, two
			id = uint64(data[pos]&0x7f) | uint64(data[pos+1])<<7
			pos += 2
		default:
			var k int
			if id, k = binary.Uvarint(data[pos:]); k <= 0 {
				return nil, fmt.Errorf("parquet: bad dictionary id in %s", cd.leaf.Node.Path)
			}
			pos += k
		}
		if id >= size {
			return nil, fmt.Errorf("parquet: dict id %d out of range in %s", id, cd.leaf.Node.Path)
		}
		ids[i] = int32(id)
	}
	dec.pos = pos
	cd.ids, cd.ints, cd.strs = ids, dict.ints, dict.strs
	return cd, nil
}
