package block

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"prestolite/internal/frame"
)

// Every response that carries pages — a task's results to the coordinator, a
// druid broker's answer to the connector, a statement's answer to the client
// — is one envelope: a frame (internal/frame: length + CRC32) holding a gob
// document of the hop's own header and the byte length of each page, followed
// by the page frames byte for byte as EncodePage wrote them. Every byte is
// under a checksum, the header frame's or a page frame's own, so a response
// damaged in flight is an error and never a shorter or different result.
type envelope[H any] struct {
	Header H
	Lens   []int // byte length of each page frame that follows
}

// EncodeEnvelope builds the response that carries header and frames, each of
// which EncodePage wrote. H is a struct of plain exported fields: a header gob
// cannot encode is a bug, not an input, and panics.
func EncodeEnvelope[H any](header H, frames [][]byte) []byte {
	env := envelope[H]{Header: header, Lens: make([]int, len(frames))}
	size := 0
	for i, f := range frames {
		env.Lens[i] = len(f)
		size += len(f)
	}
	buf := bytes.NewBuffer(make([]byte, frame.HeaderSize, 1024+size))
	if err := gob.NewEncoder(buf).Encode(env); err != nil {
		panic(fmt.Sprintf("block: envelope header %T: %v", header, err))
	}
	frame.Seal(buf.Bytes())
	for _, f := range frames {
		buf.Write(f)
	}
	return buf.Bytes()
}

// ReadEnvelope checks what EncodeEnvelope wrote and returns the header and the
// page frames, which alias body. A header frame or page frame that fails its
// checksum, a length the body does not cover and bytes left over are errors.
// The frames are verified, not decoded: DecodePages does that.
func ReadEnvelope[H any](body []byte) (header H, frames [][]byte, err error) {
	payload, n, ok := frame.Next(body)
	if !ok {
		return header, nil, errors.New("block: envelope: short or corrupt header frame")
	}
	var env envelope[H]
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&env); err != nil {
		return header, nil, fmt.Errorf("block: envelope: header: %w", err)
	}
	body = body[n:]
	frames = make([][]byte, 0, len(env.Lens))
	for i, l := range env.Lens {
		if l < 0 || l > len(body) {
			return header, nil, fmt.Errorf("block: envelope: page frame %d of %d cut short", i, len(env.Lens))
		}
		if _, err := pagePayload(body[:l]); err != nil {
			return header, nil, fmt.Errorf("block: envelope: page frame %d: %w", i, err)
		}
		frames, body = append(frames, body[:l:l]), body[l:]
	}
	if len(body) != 0 {
		return header, nil, errors.New("block: envelope: trailing bytes after the page frames")
	}
	return env.Header, frames, nil
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
