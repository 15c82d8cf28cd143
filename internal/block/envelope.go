package block

import (
	"errors"
	"fmt"

	"prestolite/internal/frame"
)

// Every response that carries pages — a task's results to the coordinator, a
// druid broker's answer to the connector, a statement's answer to the client
// — is one envelope: a frame (internal/frame: length + CRC32) holding the
// hop's own header, in the binary form the hop writes, and the byte length of
// each page, followed by the page frames byte for byte as EncodePage wrote
// them. Every byte is under a checksum, the header frame's or a page frame's
// own, so a response damaged in flight is an error and never a shorter or
// different result.
//
// The header frame's payload: the header as length-prefixed bytes, the
// number of page frames, and each frame's length (frame's varints).

// EncodeEnvelope builds the response that carries header and frames, each of
// which EncodePage wrote.
func EncodeEnvelope(header []byte, frames [][]byte) []byte {
	size := 0
	for _, f := range frames {
		size += len(f)
	}
	buf := make([]byte, frame.HeaderSize, frame.HeaderSize+len(header)+10*(len(frames)+2)+size)
	buf = frame.AppendUvarint(frame.AppendBytes(buf, header), uint64(len(frames)))
	for _, f := range frames {
		buf = frame.AppendUvarint(buf, uint64(len(f)))
	}
	frame.Seal(buf)
	for _, f := range frames {
		buf = append(buf, f...)
	}
	return buf
}

// ReadEnvelope checks what EncodeEnvelope wrote and returns the header and the
// page frames, which alias body. A header frame or page frame that fails its
// checksum, a length the body does not cover and bytes left over are errors.
// The frames are verified, not decoded: DecodePages does that.
func ReadEnvelope(body []byte) (header []byte, frames [][]byte, err error) {
	payload, n, ok := frame.Next(body)
	if !ok {
		return nil, nil, errors.New("block: envelope: short or corrupt header frame")
	}
	r := frame.NewReader(payload)
	header = r.Bytes()
	lens := make([]uint64, r.Count())
	for i := range lens {
		lens[i] = r.Uvarint()
	}
	if err := r.Close(); err != nil {
		return nil, nil, fmt.Errorf("block: envelope: header: %w", err)
	}
	body = body[n:]
	frames = make([][]byte, 0, len(lens))
	for i, l := range lens {
		if l > uint64(len(body)) {
			return nil, nil, fmt.Errorf("block: envelope: page frame %d of %d cut short", i, len(lens))
		}
		if _, err := pagePayload(body[:l]); err != nil {
			return nil, nil, fmt.Errorf("block: envelope: page frame %d: %w", i, err)
		}
		frames, body = append(frames, body[:l:l]), body[l:]
	}
	if len(body) != 0 {
		return nil, nil, errors.New("block: envelope: trailing bytes after the page frames")
	}
	return header, frames, nil
}

// DecodePages decodes the page frames of an envelope.
func DecodePages(frames [][]byte) ([]*Page, error) {
	pages := make([]*Page, len(frames))
	for i, f := range frames {
		p, err := DecodePage(f)
		if err != nil {
			return nil, fmt.Errorf("page frame %d: %w", i, err)
		}
		pages[i] = p
	}
	return pages, nil
}
