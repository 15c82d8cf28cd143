package parquet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"

	"prestolite/internal/fsys"
	"prestolite/internal/types"
)

// ReadFooter parses the file footer (Fig 3) and reconstructs the schema.
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
	return &meta, schema, nil
}

// ---------------------------------------------------------------------------
// Column chunk decoding.

// chunkData is a decoded leaf chunk: level streams plus typed values.
type chunkData struct {
	leaf *Leaf
	reps []uint8 // nil when MaxRep == 0
	defs []uint8 // nil when MaxDef == 0

	ints   []int64
	floats []float64
	bools  []bool
	strs   []string
	// valueIdx and indexed belong to valueIndex.
	valueIdx []int32
	indexed  bool
	entries  int
}

func (c *chunkData) valueAt(i int) any {
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

// chunkFetch locates chunk bytes: through the data cache when one is
// configured (a hit skips both the ReadAt and the decompression — the two
// costs the Alluxio-style local cache exists to remove), straight from the
// file otherwise. The zero value is the uncached baseline.
type chunkFetch struct {
	cache    ChunkCache
	path     string
	rowGroup int
}

// body returns the decompressed bytes of the chunk's data pages
// (dict=false) or dictionary page (dict=true), and whether they came from
// the cache. Bytes read from the file are not cached here: the caller calls
// keep once they have decoded, so a corrupt read fails one query instead of
// being served from the cache to every later one.
func (cf chunkFetch) body(f fsys.File, codec Codec, cm *ChunkMeta, leaf *Leaf, dict bool) ([]byte, bool, error) {
	if cf.cache != nil {
		if b, ok := cf.cache.GetChunk(cf.path, leaf.Node.Path, cf.rowGroup, dict); ok {
			return b, true, nil
		}
	}
	off, n := cm.DataOffset, cm.DataLen
	what := "chunk"
	if dict {
		off, n = cm.DictOffset, cm.DictLen
		what = "dictionary of"
	}
	raw := make([]byte, n)
	if _, err := f.ReadAt(raw, off); err != nil {
		return nil, false, fmt.Errorf("parquet: reading %s %s: %w", what, leaf.Node.Path, err)
	}
	body, err := decompress(codec, raw)
	if err != nil {
		return nil, false, err
	}
	return body, false, nil
}

// keep caches a body that body read from the file and the caller decoded.
func (cf chunkFetch) keep(leaf *Leaf, dict bool, body []byte) {
	if cf.cache != nil {
		cf.cache.PutChunk(cf.path, leaf.Node.Path, cf.rowGroup, dict, body)
	}
}

// readChunkDictionary reads and decodes only the dictionary page of a chunk
// (the dictionary-pushdown probe, §V.G). Returns nil when not
// dictionary-encoded.
func readChunkDictionary(f fsys.File, codec Codec, cm *ChunkMeta, leaf *Leaf, cf chunkFetch) ([]any, error) {
	if !cm.Dictionary {
		return nil, nil
	}
	body, cached, err := cf.body(f, codec, cm, leaf, true)
	if err != nil {
		return nil, err
	}
	dec := &valueDecoder{data: body}
	n, err := dec.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(body)) { // every entry takes at least a byte
		return nil, fmt.Errorf("parquet: dictionary of %s claims %d entries in %d bytes", leaf.Node.Path, n, len(body))
	}
	out := make([]any, n)
	for i := range out {
		if leaf.Node.Prim.Kind == types.KindVarchar {
			s, err := dec.string()
			if err != nil {
				return nil, err
			}
			out[i] = s
		} else {
			v, err := dec.int64()
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
	}
	if !cached {
		cf.keep(leaf, true, body)
	}
	return out, nil
}

// decodeChunk reads and decodes one leaf chunk fully.
//
// vectorized selects the batched triplet decoder (§V.I): levels and values
// are decoded in batches of 1000 triplets with decoder state kept in locals
// ("registers"), a cached dictionary, and a direct path for non-nullable
// non-nested columns. The scalar path decodes one triplet per loop
// iteration, re-checking stream state each time.
func decodeChunk(f fsys.File, codec Codec, cm *ChunkMeta, leaf *Leaf, vectorized bool, cf chunkFetch) (*chunkData, error) {
	body, cached, err := cf.body(f, codec, cm, leaf, false)
	if err != nil {
		return nil, err
	}
	cd, err := decodeChunkBody(body, f, codec, cm, leaf, vectorized, cf)
	if err != nil {
		return nil, err
	}
	if !cached {
		cf.keep(leaf, false, body)
	}
	return cd, nil
}

func decodeChunkBody(body []byte, f fsys.File, codec Codec, cm *ChunkMeta, leaf *Leaf, vectorized bool, cf chunkFetch) (*chunkData, error) {
	dec := &valueDecoder{data: body}
	n64, err := dec.uvarint()
	if err != nil {
		return nil, err
	}
	if n64 > uint64(len(body)) { // every entry has at least a level byte
		return nil, fmt.Errorf("parquet: chunk %s claims %d entries in %d bytes", leaf.Node.Path, n64, len(body))
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

	numValues := n
	if cd.defs != nil {
		numValues = 0
		maxDef := uint8(leaf.MaxDef)
		for _, d := range cd.defs {
			if d == maxDef {
				numValues++
			}
		}
	}

	if encoding == 1 {
		dict, err := readChunkDictionary(f, codec, cm, leaf, cf)
		if err != nil {
			return nil, err
		}
		if dict == nil {
			return nil, fmt.Errorf("parquet: chunk %s dict-encoded without dictionary page", leaf.Node.Path)
		}
		return decodeDictChunk(cd, dec, dict, numValues, vectorized)
	}
	return decodePlainChunk(cd, dec, numValues, vectorized)
}

func decodePlainChunk(cd *chunkData, dec *valueDecoder, numValues int, vectorized bool) (*chunkData, error) {
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

func decodeDictChunk(cd *chunkData, dec *valueDecoder, dict []any, numValues int, vectorized bool) (*chunkData, error) {
	kind := cd.leaf.Node.Prim.Kind
	if kind == types.KindVarchar {
		// Cached dictionary: decode ids, then one lookup per value
		// (vectorized keeps the dict in a local slice of the concrete type).
		strDict := make([]string, len(dict))
		for i, v := range dict {
			strDict[i] = v.(string)
		}
		cd.strs = make([]string, numValues)
		for i := 0; i < numValues; i++ {
			id, err := dec.uvarint()
			if err != nil {
				return nil, err
			}
			if int(id) >= len(strDict) {
				return nil, fmt.Errorf("parquet: dict id %d out of range in %s", id, cd.leaf.Node.Path)
			}
			cd.strs[i] = strDict[id]
		}
		return cd, nil
	}
	intDict := make([]int64, len(dict))
	for i, v := range dict {
		intDict[i] = v.(int64)
	}
	cd.ints = make([]int64, numValues)
	for i := 0; i < numValues; i++ {
		id, err := dec.uvarint()
		if err != nil {
			return nil, err
		}
		if int(id) >= len(intDict) {
			return nil, fmt.Errorf("parquet: dict id %d out of range in %s", id, cd.leaf.Node.Path)
		}
		cd.ints[i] = intDict[id]
	}
	return cd, nil
}
