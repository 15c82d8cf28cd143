package block

import (
	"bytes"
	"reflect"
	"testing"

	"prestolite/internal/frame"
)

// fuzzHeader has the shapes the three real headers are made of.
type fuzzHeader struct {
	Columns []string
	First   int
	Done    bool
	Err     string
}

// FuzzReadEnvelope: any bytes — as they come, and sealed into a valid header
// frame so the gob decoder sees them too — read as a result or as an error:
// no panic, and nothing returned that the input's own size does not cover. A
// result that does read encodes again and reads back the same.
func FuzzReadEnvelope(f *testing.F) {
	var frames [][]byte
	for _, p := range fuzzSeedPages()[:3] {
		data, err := EncodePage(p)
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, data)
	}
	for n := 0; n <= len(frames); n++ {
		body := EncodeEnvelope(fuzzHeader{Columns: []string{"a", "b"}, First: n, Done: n > 1, Err: "boom"[:n]}, frames[:n])
		f.Add(body)
		f.Add(body[:len(body)-1])
		f.Add(body[:len(body)/2])
		f.Add(append(bytes.Clone(body), frames[0]...)) // a frame the header does not announce
		badCRC := bytes.Clone(body)
		badCRC[5] ^= 0x01
		f.Add(badCRC)
		_, hdrLen, _ := frame.Next(body)
		f.Add(body[frame.HeaderSize:hdrLen]) // the gob document alone: sealed below
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, got, err := ReadEnvelope[fuzzHeader](data)
		if err != nil {
			data = frame.Append(nil, data)
			if hdr, got, err = ReadEnvelope[fuzzHeader](data); err != nil {
				return
			}
		}
		size := len(hdr.Err)
		for _, c := range hdr.Columns {
			size += len(c)
		}
		for _, fr := range got {
			size += len(fr)
		}
		if size > len(data) || len(hdr.Columns) > len(data) || len(got) > len(data) {
			t.Fatalf("%d input bytes read as %d columns, %d frames, %d bytes in all", len(data), len(hdr.Columns), len(got), size)
		}
		hdr2, got2, err := ReadEnvelope[fuzzHeader](EncodeEnvelope(hdr, got))
		if err != nil || !reflect.DeepEqual(hdr2, hdr) || !reflect.DeepEqual(got2, got) {
			t.Fatalf("an envelope that read does not survive a re-encode: %v\n%+v\n%+v", err, hdr, hdr2)
		}
	})
}
