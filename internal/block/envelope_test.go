package block

import (
	"bytes"
	"testing"

	"prestolite/internal/frame"
)

// FuzzReadEnvelope: any bytes — as they come, and sealed into a valid header
// frame so the header's own layout is read too — read as a result or as an
// error: no panic, and nothing returned that the input's own size does not
// cover. A result that does read is written again, by an Envelope, as the
// same bytes, and the Envelope announces their number.
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
		// A header of the shapes the real ones are made of: column names, a
		// page index, a done flag and an error text.
		hdr := frame.AppendStrings(nil, []string{"a", "b"})
		hdr = frame.AppendString(frame.AppendBool(frame.AppendVarint(hdr, int64(n)), n > 1), "boom"[:n])
		var buf bytes.Buffer
		if _, err := NewEnvelope(hdr, frames[:n]).WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		body := buf.Bytes()
		f.Add(body)
		f.Add(body[:len(body)-1])
		f.Add(body[:len(body)/2])
		f.Add(append(bytes.Clone(body), frames[0]...)) // a frame the header does not announce
		badCRC := bytes.Clone(body)
		badCRC[5] ^= 0x01
		f.Add(badCRC)
		_, hdrLen, _ := frame.Next(body)
		f.Add(body[frame.HeaderSize:hdrLen]) // the header frame's payload alone: sealed below
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, got, err := ReadEnvelope(data)
		if err != nil {
			data = frame.Append(nil, data)
			if hdr, got, err = ReadEnvelope(data); err != nil {
				return
			}
		}
		size := len(hdr)
		for _, fr := range got {
			size += len(fr)
		}
		if size > len(data) || len(got) > len(data) {
			t.Fatalf("%d input bytes read as a %d-byte header and %d frames, %d bytes in all", len(data), len(hdr), len(got), size)
		}
		env := NewEnvelope(hdr, got)
		var again bytes.Buffer
		if n, err := env.WriteTo(&again); err != nil || n != int64(env.Len()) || !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("an envelope that read does not write back to itself (%d of %d bytes, %v):\n%x\n%x", n, env.Len(), err, data, again.Bytes())
		}
	})
}
