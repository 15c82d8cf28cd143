package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"

	"prestolite/internal/connector"
	"prestolite/internal/frame"
	"prestolite/internal/obs"
	"prestolite/internal/planner"
)

// The documents of a statement's path, in the binary form internal/frame
// builds: the statement a client posts (to a gateway's /v1/execute or a
// coordinator's /v1/statement), the task a coordinator posts to a worker, and
// the headers of the envelopes that answer them (block.Envelope). Each
// has exactly one encoding, and a reader checks every length against the
// bytes it has before it allocates.

// Request bodies come from outside the process; each handler reads at most
// this much. A statement is SQL text and a few properties; a task is a plan
// fragment and its splits. A live stats answer is one small record per
// operator of a fragment.
const (
	maxStatementBytes = 1 << 20
	maxTaskBytes      = 16 << 20
	maxStatsBytes     = 1 << 20
)

// encode writes the statement document. Properties go in key order, so equal
// requests encode to equal bytes.
func (req *StatementRequest) encode() []byte {
	dst := make([]byte, 0, len(req.Query)+len(req.Catalog)+len(req.Schema)+len(req.User)+16)
	dst = frame.AppendString(frame.AppendString(dst, req.Query), req.Catalog)
	dst = frame.AppendString(frame.AppendString(dst, req.Schema), req.User)
	return frame.AppendStringMap(dst, req.Properties)
}

// decodeStatement reads what encode wrote.
func decodeStatement(b []byte) (StatementRequest, error) {
	r := frame.NewReader(b)
	req := StatementRequest{Query: r.Str(), Catalog: r.Str(), Schema: r.Str(), User: r.Str(), Properties: r.StrMap()}
	if err := r.Close(); err != nil {
		return StatementRequest{}, fmt.Errorf("cluster: statement document: %w", err)
	}
	return req, nil
}

// ReadStatement reads the statement document a request carries, as both
// front ends take one: the coordinator's /v1/statement and the gateway's
// /v1/execute. A body past maxStatementBytes is answered 413 and one that is
// no statement 400, and ok reports whether the handler goes on. body is the
// document as it came, for a gateway to forward.
func ReadStatement(rw http.ResponseWriter, r *http.Request) (req StatementRequest, body []byte, ok bool) {
	body, ok = readRequest(rw, r, maxStatementBytes)
	if !ok {
		return req, nil, false
	}
	req, err := decodeStatement(body)
	if err != nil {
		http.Error(rw, "bad request: "+err.Error(), http.StatusBadRequest)
		return req, nil, false
	}
	return req, body, true
}

// readRequest reads a request body of at most limit bytes. A longer one is
// answered 413, one that cannot be read 400.
func readRequest(rw http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := readAll(http.MaxBytesReader(rw, r.Body, limit), min(r.ContentLength, limit))
	if err == nil {
		return body, true
	}
	status := http.StatusBadRequest
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	http.Error(rw, "bad request: "+err.Error(), status)
	return nil, false
}

// readAll reads r whole. An announced size is where the buffer is headed,
// not what it starts at, since it comes from the peer: the buffer starts at
// most readAllStart bytes and, each time it fills, grows to at most
// readAllGrowth times what has arrived, never past the size. A truthful size
// thus ends in one buffer of exactly that size (and bytes.MinRead to see the
// end), and a peer that announces more than it sends costs memory in
// proportion to what it sent.
func readAll(r io.Reader, size int64) ([]byte, error) {
	limit := int(min(max(size, 0), maxAnnounced)) + bytes.MinRead
	buf := make([]byte, 0, min(limit, readAllStart))
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, max(min(limit, readAllGrowth*len(buf)), 2*len(buf))-len(buf))
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// How readAll trusts an announced size: the buffer it starts with, how many
// times what has arrived it may grow to, and the size past which an
// announcement is as good as none (and adding to it cannot overflow).
// With these, an answer of up to 4 MiB costs 64 KiB more than its size.
const (
	readAllStart  = 64 << 10
	readAllGrowth = 64
	maxAnnounced  = 1 << 48
)

// A task document is its fragment-cache key, then the task's own fields. The
// key is the fragment's part — the encoded plan fragment and its table key,
// the same for every task of the fragment: execQuery encodes it once per
// query, and each task of the fragment and each reschedule of one reuses
// those bytes — then the snapshot version and the task's splits. Each of
// these has one encoding, so equal keys mean the same fragment over the same
// splits at the same version; a hive split's form carries its file's path,
// size and stamp.

// encodeFragment writes the part of a task document every task of one
// fragment shares.
func encodeFragment(root planner.Node, tableKey string) []byte {
	return frame.AppendString(frame.AppendBytes(nil, planner.Encode(root)), tableKey)
}

// cacheKey writes the key part of the task document (the fragment's part is
// encoded here only if the request does not carry it already).
func (req *TaskRequest) cacheKey() []byte {
	shared := req.fragment
	if shared == nil {
		shared = encodeFragment(req.Fragment, req.TableKey)
	}
	dst := make([]byte, 0, len(shared)+64*(len(req.Splits)+1)+len(req.TaskID))
	dst = frame.AppendVarint(append(dst, shared...), req.SnapshotVersion)
	dst = frame.AppendUvarint(dst, uint64(len(req.Splits)))
	for _, s := range req.Splits {
		enc, ok := s.(connector.Encoder)
		if !ok {
			panic(fmt.Sprintf("cluster: split %T has no binary form", s))
		}
		dst = enc.AppendWire(dst)
	}
	return dst
}

// maxTaskAcks bounds the acknowledgements one task document carries (and a
// coordinator keeps for one worker): a worker releases an unacknowledged
// task after releaseAfter anyway.
const maxTaskAcks = 1024

// encode writes the task document: the key part, then the task's own fields,
// then the acknowledgements.
func (req *TaskRequest) encode() []byte {
	dst := frame.AppendString(req.cacheKey(), req.TaskID)
	dst = frame.AppendVarint(dst, int64(req.Drivers))
	dst = frame.AppendVarint(frame.AppendVarint(dst, req.MaxMemory), req.Deadline)
	dst = frame.AppendUvarint(dst, uint64(len(req.Acks)))
	for _, id := range req.Acks {
		dst = frame.AppendString(dst, id)
	}
	return dst
}

// decodeTask reads what encode wrote. The fragment's handles and its splits
// are read by the connector of the fragment's scan, found in catalogs. key is
// the document's key part, as it came (it aliases b).
func decodeTask(b []byte, catalogs *connector.Registry) (req TaskRequest, key []byte, err error) {
	r := frame.NewReader(b)
	plan := r.Bytes()
	req = TaskRequest{TableKey: r.Str(), SnapshotVersion: r.Varint()}
	n := r.Count()
	if err := r.Err(); err != nil {
		return TaskRequest{}, nil, fmt.Errorf("cluster: task document: %w", err)
	}
	if req.Fragment, err = planner.Decode(plan, catalogs); err != nil {
		return TaskRequest{}, nil, err
	}
	if n > 0 {
		dec, err := splitDecoder(req.Fragment, catalogs)
		if err != nil {
			return TaskRequest{}, nil, err
		}
		req.Splits = make([]connector.Split, n)
		for i := range req.Splits {
			req.Splits[i] = dec.DecodeSplit(r)
		}
	}
	key = b[:len(b)-r.Len()]
	req.TaskID, req.Drivers = r.Str(), r.Int()
	req.MaxMemory, req.Deadline = r.Varint(), r.Varint()
	if n := r.Count(); n > maxTaskAcks {
		r.Fail(fmt.Errorf("%d acknowledgements, more than %d", n, maxTaskAcks))
	} else if n > 0 {
		req.Acks = make([]string, n)
		for i := range req.Acks {
			req.Acks[i] = r.Str()
		}
	}
	if err := r.Close(); err != nil {
		return TaskRequest{}, nil, fmt.Errorf("cluster: task document: %w", err)
	}
	return req, key, nil
}

// splitDecoder finds the connector that reads a source fragment's splits: the
// one of its scan's catalog.
func splitDecoder(n planner.Node, catalogs *connector.Registry) (connector.Decoder, error) {
	for n != nil {
		if scan, ok := n.(*planner.TableScan); ok {
			conn, err := catalogs.Get(scan.Catalog)
			if err != nil {
				return nil, err
			}
			dec, ok := conn.(connector.Decoder)
			if !ok {
				return nil, fmt.Errorf("cluster: catalog %q has no binary form for its splits", scan.Catalog)
			}
			return dec, nil
		}
		children := n.Children()
		if len(children) != 1 {
			break
		}
		n = children[0]
	}
	return nil, errors.New("cluster: a task with splits and no table scan")
}

// appendStatementHeader writes the header of a statement's answer.
func appendStatementHeader(columns, types []string) []byte {
	return frame.AppendStrings(frame.AppendStrings(nil, columns), types)
}

func readStatementHeader(b []byte) (columns, types []string, err error) {
	r := frame.NewReader(b)
	columns, types = r.Strs(), r.Strs()
	return columns, types, r.Close()
}

func (h *resultsHeader) encode() []byte {
	dst := frame.AppendBool(frame.AppendVarint(nil, int64(h.First)), h.Done)
	return obs.AppendSnapshots(frame.AppendString(dst, h.Err), h.Stats)
}

func readResultsHeader(b []byte) (resultsHeader, error) {
	r := frame.NewReader(b)
	h := resultsHeader{First: r.Int(), Done: r.Bool(), Err: r.Str(), Stats: obs.ReadSnapshots(r)}
	return h, r.Close()
}
