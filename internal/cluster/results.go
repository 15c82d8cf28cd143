package cluster

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"prestolite/internal/block"
	"prestolite/internal/frame"
	"prestolite/internal/obs"
)

// The answer to GET /v1/task/{id}/results?page=N is one frame (internal/frame:
// length + CRC32) holding a gob resultsHeader, followed by the page frames the
// header announces, exactly as block.EncodePage wrote them when the task
// published its output. Every byte is under a checksum — the header frame's or
// a page frame's own — so a response damaged in flight is an error the fetch
// retries, never a page with other values in it.

// resultsByteCap bounds the page frames of one response: every published
// frame from the requested index on until the next would pass the cap, and
// always at least one.
const resultsByteCap = 1 << 20

type resultsHeader struct {
	First int   // index of the first page frame; always the one asked for
	Lens  []int // byte length of each page frame that follows
	// Done: the task has finished and these frames end its output.
	Done bool
	// Err is the task's failure; a failed task serves no pages.
	Err string
	// Stats are the task's per-operator statistics, shipped once, with the
	// response that reports Done, so the coordinator can aggregate QueryInfo
	// without extra round trips.
	Stats []obs.OperatorStatsSnapshot
}

// taskResults is one checked and decoded results response.
type taskResults struct {
	resultsHeader
	pages []*block.Page
}

// encodeResults builds the response to a request for page first of a task
// whose published output is frames.
func encodeResults(frames [][]byte, first int, finished bool, taskErr error, stats *obs.TaskStats) []byte {
	send := frames[min(first, len(frames)):]
	hdr, size := resultsHeader{First: first}, 0
	for _, f := range send {
		if size > 0 && size+len(f) > resultsByteCap {
			break
		}
		size += len(f)
		hdr.Lens = append(hdr.Lens, len(f))
	}
	if hdr.Done = finished && len(hdr.Lens) == len(send); hdr.Done {
		hdr.Stats = stats.Snapshot()
	}
	if taskErr != nil {
		hdr.Err = taskErr.Error()
	}
	buf := bytes.NewBuffer(make([]byte, frame.HeaderSize, 1024+size))
	_ = gob.NewEncoder(buf).Encode(hdr) // plain structs into memory: cannot fail
	frame.Seal(buf.Bytes())
	for _, f := range send[:len(hdr.Lens)] {
		buf.Write(f)
	}
	return buf.Bytes()
}

// readResults checks and decodes the response to a request for page first.
func readResults(body []byte, first int) (res taskResults, err error) {
	payload, n, ok := frame.Next(body)
	if !ok {
		return res, errors.New("cluster: results response: short or corrupt header")
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&res.resultsHeader); err != nil {
		return res, fmt.Errorf("cluster: results response: header: %w", err)
	}
	if res.First != first {
		return res, fmt.Errorf("cluster: results response starts at page %d, asked for %d", res.First, first)
	}
	if res.pages, err = block.DecodePages(body[n:], res.Lens); err != nil {
		return res, fmt.Errorf("cluster: results response from page %d: %w", first, err)
	}
	return res, nil
}
