package parquet

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"prestolite/internal/snappy"
	"prestolite/internal/types"
)

// Codec selects page compression (§V.J / Figs 18-20: Snappy, Gzip, none).
type Codec int

const (
	CodecNone Codec = iota
	CodecSnappy
	CodecGzip
)

func (c Codec) String() string {
	switch c {
	case CodecSnappy:
		return "snappy"
	case CodecGzip:
		return "gzip"
	}
	return "none"
}

// compress encodes a page body with the codec.
func compress(c Codec, data []byte) ([]byte, error) {
	switch c {
	case CodecNone:
		return data, nil
	case CodecSnappy:
		return snappy.Encode(nil, data), nil
	case CodecGzip:
		var buf bytes.Buffer
		w, _ := gzip.NewWriterLevel(&buf, gzip.DefaultCompression) // DefaultCompression is always a valid level
		if _, err := w.Write(data); err != nil {
			return nil, err
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	return nil, fmt.Errorf("parquet: unknown codec %d", c)
}

// decompress decodes a page body.
func decompress(c Codec, data []byte) ([]byte, error) {
	switch c {
	case CodecNone:
		return data, nil
	case CodecSnappy:
		return snappy.Decode(nil, data)
	case CodecGzip:
		r, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		defer r.Close()
		return io.ReadAll(r)
	}
	return nil, fmt.Errorf("parquet: unknown codec %d", c)
}

// maxExpansion bounds the decompressed bytes one compressed byte can stand
// for: what snappy.Decode accepts, and deflate's format limit. A footer that
// claims more entries than that was not written by compress.
func maxExpansion(c Codec) int64 {
	switch c {
	case CodecNone:
		return 1
	case CodecSnappy:
		return 64
	}
	return 1032
}

// ---------------------------------------------------------------------------
// Plain value encoding: int64 varint, float64 LE bits, bool bytes, varchar
// length-prefixed.

type valueEncoder struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (e *valueEncoder) putInt64(v int64) {
	n := binary.PutVarint(e.tmp[:], v)
	e.buf.Write(e.tmp[:n])
}

func (e *valueEncoder) putUvarint(v uint64) {
	n := binary.PutUvarint(e.tmp[:], v)
	e.buf.Write(e.tmp[:n])
}

func (e *valueEncoder) putFloat64(v float64) {
	binary.LittleEndian.PutUint64(e.tmp[:8], math.Float64bits(v))
	e.buf.Write(e.tmp[:8])
}

func (e *valueEncoder) putBool(v bool) {
	if v {
		e.buf.WriteByte(1)
	} else {
		e.buf.WriteByte(0)
	}
}

func (e *valueEncoder) putString(v string) {
	e.putUvarint(uint64(len(v)))
	e.buf.WriteString(v)
}

type valueDecoder struct {
	data []byte
	pos  int
}

func (d *valueDecoder) int64() (int64, error) {
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("parquet: bad varint at %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *valueDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("parquet: bad uvarint at %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *valueDecoder) float64() (float64, error) {
	if d.pos+8 > len(d.data) {
		return 0, fmt.Errorf("parquet: truncated float at %d", d.pos)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.pos:]))
	d.pos += 8
	return v, nil
}

func (d *valueDecoder) bool() (bool, error) {
	if d.pos >= len(d.data) {
		return false, fmt.Errorf("parquet: truncated bool at %d", d.pos)
	}
	v := d.data[d.pos] != 0
	d.pos++
	return v, nil
}

func (d *valueDecoder) string() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.data)-d.pos) {
		return "", fmt.Errorf("parquet: truncated string at %d", d.pos)
	}
	s := string(d.data[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

// ---------------------------------------------------------------------------
// Column statistics (footer, Fig 3: "column-level statistics, e.g., the
// minimum and maximum number of column values").

// Stats holds per-chunk min/max and null counts.
type Stats struct {
	HasMinMax  bool
	MinI, MaxI int64
	MinF, MaxF float64
	MinS, MaxS string
	NullCount  int64
	NumValues  int64 // present (non-null) values
}

func (st *Stats) updateInt(v int64) {
	if !st.HasMinMax || v < st.MinI {
		st.MinI = v
	}
	if !st.HasMinMax || v > st.MaxI {
		st.MaxI = v
	}
	st.HasMinMax = true
}

// updateFloat leaves a NaN out: the statistics bound the values a comparison
// other than <> can match, and a NaN matches none of them.
func (st *Stats) updateFloat(v float64) {
	if math.IsNaN(v) {
		return
	}
	if !st.HasMinMax || v < st.MinF {
		st.MinF = v
	}
	if !st.HasMinMax || v > st.MaxF {
		st.MaxF = v
	}
	st.HasMinMax = true
}

func (st *Stats) updateString(v string) {
	if !st.HasMinMax || v < st.MinS {
		st.MinS = v
	}
	if !st.HasMinMax || v > st.MaxS {
		st.MaxS = v
	}
	st.HasMinMax = true
}

// Min returns the typed minimum (or nil).
func (st *Stats) Min(t *types.Type) any {
	if !st.HasMinMax {
		return nil
	}
	switch t.Kind {
	case types.KindDouble:
		return st.MinF
	case types.KindVarchar:
		return st.MinS
	case types.KindBoolean:
		return st.MinI != 0
	default:
		return st.MinI
	}
}

// Max returns the typed maximum (or nil).
func (st *Stats) Max(t *types.Type) any {
	if !st.HasMinMax {
		return nil
	}
	switch t.Kind {
	case types.KindDouble:
		return st.MaxF
	case types.KindVarchar:
		return st.MaxS
	case types.KindBoolean:
		return st.MaxI != 0
	default:
		return st.MaxI
	}
}
