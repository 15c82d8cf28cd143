package types

import (
	"fmt"

	"prestolite/internal/frame"
)

// maxWireDepth bounds how deeply a type read from the wire may nest, so a
// hostile document cannot recurse the reader off its stack.
const maxWireDepth = 64

// AppendType appends t's binary form: its kind (0 for a nil type, kind+1
// otherwise), then an array's element, a map's key and value, or a row's
// named fields.
func AppendType(dst []byte, t *Type) []byte {
	if t == nil {
		return append(dst, 0)
	}
	dst = frame.AppendUvarint(dst, uint64(t.Kind)+1)
	switch t.Kind {
	case KindArray:
		dst = AppendType(dst, t.Elem)
	case KindMap:
		dst = AppendType(AppendType(dst, t.Key), t.Value)
	case KindRow:
		dst = frame.AppendUvarint(dst, uint64(len(t.Fields)))
		for _, f := range t.Fields {
			dst = AppendType(frame.AppendString(dst, f.Name), f.Type)
		}
	}
	return dst
}

// ReadType reads what AppendType wrote. A primitive type reads as its
// package singleton, so == keeps working on the far side.
func ReadType(r *frame.Reader) *Type { return readType(r, 0) }

func readType(r *frame.Reader, depth int) *Type {
	if depth > maxWireDepth {
		r.Fail(fmt.Errorf("types: a type nested deeper than %d", maxWireDepth))
		return nil
	}
	u := r.Uvarint()
	if u == 0 || r.Err() != nil {
		return nil
	}
	switch k := Kind(u - 1); k {
	case KindUnknown:
		return Unknown
	case KindBoolean:
		return Boolean
	case KindInteger:
		return Integer
	case KindBigint:
		return Bigint
	case KindDouble:
		return Double
	case KindVarchar:
		return Varchar
	case KindDate:
		return Date
	case KindArray:
		return &Type{Kind: k, Elem: readType(r, depth+1)}
	case KindMap:
		key := readType(r, depth+1)
		return &Type{Kind: k, Key: key, Value: readType(r, depth+1)}
	case KindRow:
		fields := make([]Field, r.Count())
		for i := range fields {
			fields[i].Name = r.Str()
			fields[i].Type = readType(r, depth+1)
		}
		return &Type{Kind: k, Fields: fields}
	default:
		r.Fail(fmt.Errorf("types: unknown kind %d", u-1))
		return nil
	}
}
