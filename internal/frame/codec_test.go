package frame

import (
	"math"
	"reflect"
	"testing"
)

// TestCodecRoundTrip: what the Append helpers write reads back as it was,
// nil and empty lists apart, and the reader ends exactly at the end.
func TestCodecRoundTrip(t *testing.T) {
	b := AppendUvarint(nil, math.MaxUint64)
	b = AppendVarint(b, math.MinInt64)
	b = AppendString(b, "héllo")
	b = AppendBytes(b, []byte{0, 1, 2})
	b = AppendBool(AppendBool(b, true), false)
	b = AppendFloat64(b, math.Inf(-1))
	b = AppendInts(AppendInts(b, nil), []int{})
	b = AppendStrings(AppendStrings(b, []string{"a", ""}), nil)
	b = AppendStringMap(b, map[string]string{"z": "1", "a": "2"})
	r := NewReader(b)
	got := []any{r.Uvarint(), r.Varint(), r.Str(), r.Bytes(), r.Bool(), r.Bool(), r.Float64(), r.Ints(), r.Ints(), r.Strs(), r.Strs(), r.StrMap()}
	want := []any{uint64(math.MaxUint64), int64(math.MinInt64), "héllo", []byte{0, 1, 2}, true, false, math.Inf(-1), []int(nil), []int{}, []string{"a", ""}, []string(nil), map[string]string{"a": "2", "z": "1"}}
	if err := r.Close(); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("read %v, %v; want %v", got, err, want)
	}
}

// TestReaderRefusesWhatNoAppendWrites: every form has one encoding, and a
// length is checked against the bytes left before anything is allocated.
func TestReaderRefusesWhatNoAppendWrites(t *testing.T) {
	for name, tc := range map[string]struct {
		b    []byte
		read func(*Reader)
	}{
		"varint not in its shortest form": {[]byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		"varint past 64 bits":             {[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, func(r *Reader) { r.Uvarint() }},
		"string longer than the input":    {[]byte{0x05, 'a'}, func(r *Reader) { r.Str() }},
		"count larger than the input":     {AppendUvarint(nil, 1<<40), func(r *Reader) { r.Count() }},
		"list larger than the input":      {AppendUvarint(nil, 1<<40), func(r *Reader) { r.Ints() }},
		"bool other than 0 or 1":          {[]byte{2}, func(r *Reader) { r.Bool() }},
		"float cut short":                 {[]byte{1, 2, 3}, func(r *Reader) { r.Float64() }},
		"map keys out of order":           {AppendString(AppendString(AppendString(AppendString([]byte{2}, "b"), "1"), "a"), "2"), func(r *Reader) { r.StrMap() }},
		"map key repeated":                {AppendString(AppendString(AppendString(AppendString([]byte{2}, "a"), "1"), "a"), "2"), func(r *Reader) { r.StrMap() }},
		"trailing bytes":                  {[]byte{1, 9}, func(r *Reader) { r.Bool() }},
	} {
		r := NewReader(tc.b)
		tc.read(r)
		if r.Close() == nil {
			t.Errorf("%s: read without an error", name)
		}
	}
}
