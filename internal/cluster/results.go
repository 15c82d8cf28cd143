package cluster

import (
	"fmt"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/obs"
)

// The answer to POST /v1/task (for page 0) and to GET
// /v1/task/{id}/results?page=N is one envelope
// (block.Envelope): a checksummed resultsHeader (in its binary form,
// resultsHeader.encode) followed by the page
// frames it covers, exactly as block.EncodePage wrote them when the task
// published its output. A response damaged in flight is an error the fetch
// retries, never a page with other values in it: every checksum is checked
// when the response arrives, and the frames are kept as they came, to be
// decoded one at a time as the query reads them (remoteSourceOperator).

// resultsByteCap bounds the page frames of one response: every published
// frame from the requested index on until the next would pass the cap, and
// always at least one.
const resultsByteCap = 1 << 20

// resultsWait bounds how long the worker holds a request for a task's output
// — the task POST itself, then each GET ?page=N — while the task has not
// finished: it answers as soon as the task is done, or at the bound with no
// frames and Done unset, and the coordinator goes on with GET ?page=N at
// once. A task that ends within the bound thus costs its coordinator the
// POST alone. The bound sits under DefaultClientConfig's HedgeDelay, so a
// fetch that is only waiting is never hedged at the defaults (the POST never
// is), and it is short enough that the coordinator's deadline and abort
// checks run between waits.
const resultsWait = 100 * time.Millisecond

type resultsHeader struct {
	First int // index of the first page frame; always the one asked for
	// Done: the task has finished and these frames end its output.
	Done bool
	// Err is the task's failure; a failed task serves no pages.
	Err string
	// Stats are the task's per-operator statistics, shipped once, with the
	// response that reports Done, so the coordinator can aggregate QueryInfo
	// without extra round trips.
	Stats []obs.OperatorStatsSnapshot
}

// taskResults is one checked results response.
type taskResults struct {
	resultsHeader
	frames [][]byte // checked page frames, aliasing the response body
}

// resultsEnvelope is the response to a request for page first of a task
// whose published output is frames; done reports whether it is the task's
// Done answer.
func resultsEnvelope(frames [][]byte, first int, finished bool, taskErr error, stats *obs.TaskStats) (env block.Envelope, done bool) {
	send := frames[min(first, len(frames)):]
	n, size := 0, 0
	for ; n < len(send); n++ {
		if size > 0 && size+len(send[n]) > resultsByteCap {
			break
		}
		size += len(send[n])
	}
	hdr := resultsHeader{First: first, Done: finished && n == len(send)}
	if hdr.Done {
		hdr.Stats = stats.Snapshot()
	}
	if taskErr != nil {
		hdr.Err = taskErr.Error()
	}
	return block.NewEnvelope(hdr.encode(), send[:n]), hdr.Done
}

// readResults checks the response to a request for page first: the header
// and every page frame's checksum.
func readResults(body []byte, first int) (res taskResults, err error) {
	raw, frames, err := block.ReadEnvelope(body)
	if err != nil {
		return res, fmt.Errorf("cluster: results response: %w", err)
	}
	hdr, err := readResultsHeader(raw)
	if err != nil {
		return res, fmt.Errorf("cluster: results response header: %w", err)
	}
	if hdr.First != first {
		return res, fmt.Errorf("cluster: results response starts at page %d, asked for %d", hdr.First, first)
	}
	return taskResults{resultsHeader: hdr, frames: frames}, nil
}
