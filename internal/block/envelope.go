package block

import (
	"errors"
	"fmt"
	"io"

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

// Envelope is one response that carries pages, ready to be written: its
// header frame is built, and its page frames are kept as they are. The frames
// are never copied into one body: WriteTo writes the header frame, then each
// page frame, so a response costs the small header and nothing else.
type Envelope struct {
	head   []byte // the sealed header frame
	frames [][]byte
	size   int
}

// NewEnvelope builds the header frame for header and frames, each of which
// EncodePage wrote. The frames are written as they are by WriteTo, so they
// must not change until it returns.
func NewEnvelope(header []byte, frames [][]byte) Envelope {
	size := 0
	for _, f := range frames {
		size += len(f)
	}
	head := make([]byte, frame.HeaderSize, frame.HeaderSize+len(header)+10*(len(frames)+2))
	head = frame.AppendUvarint(frame.AppendBytes(head, header), uint64(len(frames)))
	for _, f := range frames {
		head = frame.AppendUvarint(head, uint64(len(f)))
	}
	frame.Seal(head)
	return Envelope{head: head, frames: frames, size: len(head) + size}
}

// Len is the number of bytes WriteTo writes: what a response announces as
// its Content-Length.
func (e Envelope) Len() int { return e.size }

// WriteTo writes the header frame, then the page frames as they are.
func (e Envelope) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(e.head)
	written := int64(n)
	for _, f := range e.frames {
		if err != nil {
			break
		}
		n, err = w.Write(f)
		written += int64(n)
	}
	return written, err
}

// ReadEnvelope checks what an Envelope wrote and returns the header and the
// page frames, which alias body. A header frame or page frame that fails its
// checksum, a length the body does not cover and bytes left over are errors.
// The frames are verified, not decoded: DecodePage does that, one at a time.
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
