package parquet

import (
	"bytes"
	"encoding/binary"
	//lint:ignore nogob ROADMAP item 12(d): the footer becomes a typed binary footer, bounded before allocation
	"encoding/gob"
	"fmt"
	"math"
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

// chunkData is a decoded leaf chunk: level streams plus typed values. It is
// complete when decodeChunkBody returns it and nothing writes it afterwards:
// the chunk cache shares one chunkData among every query that hits it, and
// the blocks flatBlock builds wrap its slices.
type chunkData struct {
	leaf *Leaf
	reps []uint8 // nil when MaxRep == 0
	defs []uint8 // nil when MaxDef == 0 or every entry has a value

	// The typed values, one per present entry; for a dictionary-encoded
	// chunk, the dictionary's entries instead, which ids index. A chunk the
	// cache holds never carries its dictionary's: withDictionary adds them
	// to a copy.
	ints   []int64
	floats []float64
	bools  []bool
	strs   []string
	// ids holds, when the chunk is dictionary-encoded, one dictionary index
	// per present entry, each checked against a dictionary of dictSize
	// entries.
	ids      []int32
	dictSize int
	// present counts the entries with a value (def == MaxDef).
	present int
	entries int
	// strBytes is what the varchar values' bytes take.
	strBytes int
}

// chunkEntryBytes is what a cached entry costs besides its slices: the
// chunkData or dictionary header and the cache's map slot, list element and
// entry.
const chunkEntryBytes = 256

// decodedSize is what the chunk occupies decoded, what the chunk cache
// charges for it.
func (c *chunkData) decodedSize() int64 {
	return int64(chunkEntryBytes + len(c.reps) + len(c.defs) + 8*len(c.ints) + 8*len(c.floats) +
		len(c.bools) + 16*len(c.strs) + c.strBytes + 4*len(c.ids))
}

// Checksum sums everything a reader sees of the chunk: the chunk cache
// checks it under its test hook (cache.CheckChunks).
func (c *chunkData) Checksum() uint64 {
	var s checksum
	sumEach(&s, c.reps, func(v uint8) uint64 { return uint64(v) })
	sumEach(&s, c.defs, func(v uint8) uint64 { return uint64(v) })
	sumEach(&s, c.ints, func(v int64) uint64 { return uint64(v) })
	sumEach(&s, c.floats, math.Float64bits)
	sumEach(&s, c.bools, func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	})
	sumEach(&s, c.strs, s.str)
	sumEach(&s, c.ids, func(v int32) uint64 { return uint64(v) })
	sumEach(&s, []int{c.dictSize, c.present, c.entries, c.strBytes}, func(v int) uint64 { return uint64(v) })
	return uint64(s)
}

// Checksum sums the dictionary's entries, as chunkData.Checksum does.
func (d *dictionary) Checksum() uint64 {
	var s checksum
	sumEach(&s, d.ints, func(v int64) uint64 { return uint64(v) })
	sumEach(&s, d.strs, s.str)
	s.word(uint64(d.strBytes))
	return uint64(s)
}

// checksum folds 64-bit words in, FNV-1a style.
type checksum uint64

func (s *checksum) word(v uint64) { *s = (*s ^ checksum(v)) * 1099511628211 }

// str folds a string's bytes in and stands for it with its length.
func (s *checksum) str(v string) uint64 {
	for i := 0; i < len(v); i++ {
		s.word(uint64(v[i]))
	}
	return uint64(len(v))
}

// sumEach folds a slice in: its length, then each value as word makes it.
func sumEach[T any](s *checksum, vals []T, word func(T) uint64) {
	s.word(uint64(len(vals)))
	for _, v := range vals {
		s.word(word(v))
	}
}

// withDictionary returns the dictionary-encoded chunk c reading its ids
// through d: a copy, so that a cached chunk never pins its dictionary, which
// the cache keeps and evicts apart.
func (c *chunkData) withDictionary(d *dictionary) (*chunkData, error) {
	if d.size() != c.dictSize {
		return nil, fmt.Errorf("parquet: chunk %s: its ids index %d dictionary entries, its dictionary has %d", c.leaf.Node.Path, c.dictSize, d.size())
	}
	view := *c
	view.ints, view.strs = d.ints, d.strs
	return &view, nil
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
// hierarchy): decoded column chunks keyed by file path and stamp (the
// file's identity, ReaderOptions.Stamp), leaf column path, row group ordinal
// and entry kind (data vs dictionary). An entry is a *chunkData or a
// *dictionary, charged at its decoded size; the reader puts it only once it
// decoded without error and writes it never after, so implementations may
// hand one entry to any number of readers at once. Defined here (and
// satisfied by internal/cache.ChunkCache[any]) so parquet does not depend on
// the cache package.
type ChunkCache interface {
	GetChunk(path string, stamp int64, column string, rowGroup int, dict bool) (any, bool)
	PutChunk(path string, stamp int64, column string, rowGroup int, dict bool, chunk any, size int64)
}

// pages is one contiguous run of a column chunk in the file — its data pages
// or its dictionary page — that the chunk cache did not hold decoded: the I/O
// plan reads it as part of a byteRange.
type pages struct {
	leaf *Leaf
	dict bool
	off  int64
	n    int

	raw []byte // bytes of the file, set when the read covering them lands
}

func (p *pages) String() string {
	if p.dict {
		return "dictionary of " + p.leaf.Node.Path
	}
	return "chunk " + p.leaf.Node.Path
}

// chunkBytes is one leaf chunk of one row group in the I/O plan.
type chunkBytes struct {
	cm   *ChunkMeta
	data pages
	dict pages // only when cm.Dictionary
	// entries is the dictionary decoded: the chunk cache's, or the
	// dictionary page's, by whichever of the dictionary-pushdown probe and
	// the chunk's decode needs it first.
	entries *dictionary
	// decoded is the chunk cache's entry for the data pages, when it had
	// one.
	decoded *chunkData
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

// runs calls visit, in file order, on the chunk's page runs that the chunk
// cache did not hold decoded.
func (cb *chunkBytes) runs(visit func(*pages)) {
	if cb.cm.Dictionary && cb.entries == nil {
		visit(&cb.dict)
	}
	if cb.decoded == nil {
		visit(&cb.data)
	}
}

// chunkFetch keys one row group's chunks in the data cache. The zero value
// is the uncached baseline: every lookup misses and nothing is kept.
type chunkFetch struct {
	cache    ChunkCache
	path     string
	stamp    int64
	rowGroup int
}

// lookup takes what the cache holds of cb, decoded: its dictionary and its
// data pages. A hit skips the read, the decompression and the decode, the
// costs the Alluxio-style local cache exists to remove. Each chunk is looked
// up once, when its batch is planned.
func (cf chunkFetch) lookup(cb *chunkBytes) {
	if cf.cache == nil {
		return
	}
	column := cb.data.leaf.Node.Path
	if cb.cm.Dictionary {
		if v, ok := cf.cache.GetChunk(cf.path, cf.stamp, column, cf.rowGroup, true); ok {
			cb.entries = v.(*dictionary)
		}
	}
	if v, ok := cf.cache.GetChunk(cf.path, cf.stamp, column, cf.rowGroup, false); ok {
		cb.decoded = v.(*chunkData)
	}
}

// keep caches an entry of leaf that the caller has decoded without error: a
// corrupt read fails one query instead of being served from the cache to
// every later one.
func (cf chunkFetch) keep(leaf *Leaf, dict bool, entry any, size int64) {
	if cf.cache != nil {
		cf.cache.PutChunk(cf.path, cf.stamp, leaf.Node.Path, cf.rowGroup, dict, entry, size)
	}
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
		p.raw = buf[at : at+p.n : at+p.n]
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
// dictionary-encodes no other kind). Like chunkData, it is complete when
// readDictionary returns it and never written afterwards.
type dictionary struct {
	ints []int64
	strs []string
	// strBytes is what the varchar entries' bytes take.
	strBytes int
}

// decodedSize is what the dictionary occupies decoded, what the chunk cache
// charges for it.
func (d *dictionary) decodedSize() int64 {
	return int64(chunkEntryBytes + 8*len(d.ints) + 16*len(d.strs) + d.strBytes)
}

// readDictionary returns the dictionary of a dictionary-encoded chunk: the
// chunk cache's, or the dictionary page decoded, once per chunk read and
// then cached. The dictionary-pushdown probe (§V.G) and the chunk's decode
// share the result. A varchar dictionary is one string copy of the page
// body, every entry a substring of it.
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
	body, err := decompress(codec, cb.dict.raw)
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
		if d.strs, _, err = substrings(body[pos:], int(n)); err != nil {
			return nil, fmt.Errorf("parquet: dictionary of %s: %w", leaf.Node.Path, err)
		}
		d.strBytes = len(body) - pos
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
	cf.keep(leaf, true, d, d.decodedSize())
	cb.entries = d
	return d, nil
}

// substrings decodes n length-prefixed strings from the start of b with one
// string copy of b, every value a substring of it, and returns how many
// bytes of b they took.
func substrings(b []byte, n int) ([]string, int, error) {
	all := string(b)
	strs := make([]string, n)
	at := 0 // into all
	for i := range strs {
		size, k := binary.Uvarint(b[at:])
		if k <= 0 || size > uint64(len(all)-at-k) {
			return nil, 0, fmt.Errorf("entry %d runs past the page", i)
		}
		at += k
		strs[i] = all[at : at+int(size)]
		at += int(size)
	}
	return strs, at, nil
}

// size is the number of entries.
func (d *dictionary) size() int { return len(d.ints) + len(d.strs) }

// decodeChunk returns one leaf chunk decoded: the chunk cache's entry, when
// locate found one, or the chunk's fetched pages decoded and then cached. A
// dictionary-encoded chunk comes back reading its ids through its
// dictionary.
//
// vectorized selects the batched triplet decoder (§V.I) for plain values:
// they are decoded in batches of 1000 with decoder state kept in locals
// ("registers"), and a direct path for non-nullable non-nested columns. The
// scalar path decodes one value per loop iteration, re-checking stream
// state each time. A dictionary-encoded chunk decodes the same way for
// both: its dictionary once, then its ids in one loop, never expanded.
func decodeChunk(cb *chunkBytes, codec Codec, vectorized bool, cf chunkFetch) (*chunkData, error) {
	cd := cb.decoded
	if cd == nil {
		body, err := decompress(codec, cb.data.raw)
		if err != nil {
			return nil, err
		}
		if cd, err = decodeChunkBody(body, cb, codec, vectorized, cf); err != nil {
			return nil, err
		}
		cf.keep(cd.leaf, false, cd, cd.decodedSize())
	}
	if cd.ids == nil {
		return cd, nil
	}
	dict, err := cb.readDictionary(codec, cf)
	if err != nil {
		return nil, err
	}
	return cd.withDictionary(dict)
}

// decodeChunkBody decodes a chunk's decompressed data pages into what the
// chunk cache keeps of them: the levels copied out of body (the definition
// levels only when some entry has no value), and the values or, for a
// dictionary-encoded chunk, the ids.
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
	cd := &chunkData{leaf: leaf, entries: n, present: n}
	if leaf.MaxRep > 0 {
		if dec.pos+n > len(body) {
			return nil, fmt.Errorf("parquet: truncated rep levels in %s", leaf.Node.Path)
		}
		cd.reps = bytes.Clone(body[dec.pos : dec.pos+n])
		dec.pos += n
	}
	if leaf.MaxDef > 0 {
		if dec.pos+n > len(body) {
			return nil, fmt.Errorf("parquet: truncated def levels in %s", leaf.Node.Path)
		}
		defs := body[dec.pos : dec.pos+n]
		dec.pos += n
		if cd.present = bytes.Count(defs, []byte{uint8(leaf.MaxDef)}); cd.present < n {
			cd.defs = bytes.Clone(defs)
		}
	}
	if dec.pos >= len(body) {
		return nil, fmt.Errorf("parquet: truncated chunk %s", leaf.Node.Path)
	}
	encoding := body[dec.pos]
	dec.pos++

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
			// One string copy of the rest of the body, every value a
			// substring of it: one allocation, and one object for the GC
			// to mark, whatever the number of values.
			strs, k, err := substrings(dec.data[dec.pos:], numValues)
			if err != nil {
				return nil, fmt.Errorf("parquet: chunk %s: %w", cd.leaf.Node.Path, err)
			}
			cd.strs, cd.strBytes = strs, len(dec.data)-dec.pos
			dec.pos += k
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
			cd.strBytes += len(v)
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
// present entry, in one loop, checked against the dictionary but never
// expanded into its values.
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
	cd.ids, cd.dictSize = ids, dict.size()
	return cd, nil
}
