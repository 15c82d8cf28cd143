package connector

import (
	"prestolite/internal/frame"
	"prestolite/internal/types"
)

// Encoder is a TableHandle or a Split with a binary form (internal/frame):
// what a connector whose scans run on workers gives its handles and splits.
// planner.Encode writes a scan's handle with it, the task request its splits.
type Encoder interface {
	AppendWire(dst []byte) []byte
}

// Decoder is the connector half of Encoder: it reads back the handles and
// splits its own Encoders wrote. A worker finds it by the scan's catalog.
type Decoder interface {
	DecodeHandle(r *frame.Reader) TableHandle
	DecodeSplit(r *frame.Reader) Split
}

// AppendColumns appends a table's columns, for the handles that carry them.
func AppendColumns(dst []byte, cols []Column) []byte {
	dst = frame.AppendUvarint(dst, uint64(len(cols)))
	for _, c := range cols {
		dst = types.AppendType(frame.AppendString(dst, c.Name), c.Type)
	}
	return dst
}

// ReadColumns reads what AppendColumns wrote.
func ReadColumns(r *frame.Reader) []Column {
	n := r.Count()
	if n == 0 {
		return nil
	}
	cols := make([]Column, n)
	for i := range cols {
		cols[i] = Column{Name: r.Str(), Type: types.ReadType(r)}
	}
	return cols
}
