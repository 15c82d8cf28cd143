// Package frame is the one length + CRC32 framing every checksummed byte
// stream in the repository uses: the ingest write-ahead log, the page codec
// and the task-results response. It also holds the primitives of the binary
// documents processes send each other (codec.go).
//
// Frame format: [len uint32 LE][crc32(payload) uint32 LE][payload].
package frame

import (
	"encoding/binary"
	"hash/crc32"
)

// HeaderSize is the length and checksum in front of every payload.
const HeaderSize = 8

// Seal fills in the header of a frame built in place: b is HeaderSize
// reserved bytes followed by the payload.
func Seal(b []byte) {
	payload := b[HeaderSize:]
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(payload))
}

// Append appends payload to dst as one frame.
func Append(dst, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, HeaderSize)...)
	dst = append(dst, payload...)
	Seal(dst[start:])
	return dst
}

// Next extracts the first frame of b, returning the payload and total bytes
// consumed. ok is false on a short or corrupt frame.
func Next(b []byte) (payload []byte, n int, ok bool) {
	if len(b) < HeaderSize {
		return nil, 0, false
	}
	plen := int(binary.LittleEndian.Uint32(b[0:4]))
	if len(b)-HeaderSize < plen {
		return nil, 0, false
	}
	payload = b[HeaderSize : HeaderSize+plen]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, false
	}
	return payload, HeaderSize + plen, true
}
