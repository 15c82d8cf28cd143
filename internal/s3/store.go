// Package s3 simulates an S3-semantics object store and implements
// PrestoS3FileSystem on top of it (§IX): lazy seek, exponential backoff
// against transient errors, multipart upload, and S3 Select projection
// pushdown. The store is in-memory with per-request latency and injectable
// throttling, which is what the client-side optimizations react to.
package s3

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counters tracks request volume — the quantity lazy seek reduces.
type Counters struct {
	GetRequests   atomic.Int64 // ranged GETs (connection opens)
	PutRequests   atomic.Int64
	ListRequests  atomic.Int64
	HeadRequests  atomic.Int64
	Throttles     atomic.Int64 // injected 503s handed to clients
	BytesReturned atomic.Int64
}

// ErrSlowDown is the transient throttling error (HTTP 503 SlowDown).
type ErrSlowDown struct{}

func (ErrSlowDown) Error() string { return "s3: 503 SlowDown (transient)" }

// ErrNoSuchKey reports a missing object.
type ErrNoSuchKey struct{ Key string }

func (e ErrNoSuchKey) Error() string { return fmt.Sprintf("s3: NoSuchKey %q", e.Key) }

// Config tunes the simulation.
type Config struct {
	// RequestLatency is charged per request (connection + TTFB).
	RequestLatency time.Duration
	// ThrottleEvery injects one transient 503 every N requests (0 = never).
	ThrottleEvery int64
}

// Store is the object store.
type Store struct {
	cfg Config

	mu      sync.RWMutex
	objects map[string][]byte
	uploads map[string]*multipartUpload

	reqSeq   atomic.Int64
	uploadID atomic.Int64

	// Counters are exported for experiments.
	Counters Counters
}

type multipartUpload struct {
	key   string
	parts map[int][]byte
}

// NewStore creates an empty bucket.
func NewStore(cfg Config) *Store {
	return &Store{cfg: cfg, objects: map[string][]byte{}, uploads: map[string]*multipartUpload{}}
}

// maybeFail charges latency and injects throttles.
func (s *Store) maybeFail() error {
	if s.cfg.RequestLatency > 0 {
		//lint:ignore clockdet this Sleep simulates S3 service-side latency, the quantity the experiments measure; client-side retry backoff goes through the Clock injected in s3fs.go
		time.Sleep(s.cfg.RequestLatency)
	}
	if s.cfg.ThrottleEvery > 0 {
		if s.reqSeq.Add(1)%s.cfg.ThrottleEvery == 0 {
			s.Counters.Throttles.Add(1)
			return ErrSlowDown{}
		}
	}
	return nil
}

// Put stores an object.
func (s *Store) Put(key string, data []byte) error {
	s.Counters.PutRequests.Add(1)
	if err := s.maybeFail(); err != nil {
		return err
	}
	s.mu.Lock()
	s.objects[key] = append([]byte(nil), data...)
	s.mu.Unlock()
	return nil
}

// Head returns object size.
func (s *Store) Head(key string) (int64, error) {
	s.Counters.HeadRequests.Add(1)
	if err := s.maybeFail(); err != nil {
		return 0, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.objects[key]
	if !ok {
		return 0, ErrNoSuchKey{Key: key}
	}
	return int64(len(data)), nil
}

// GetRange opens a ranged GET starting at offset (to end of object). The
// returned reader streams without further requests.
func (s *Store) GetRange(key string, offset int64) (*ObjectReader, error) {
	s.Counters.GetRequests.Add(1)
	if err := s.maybeFail(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	data, ok := s.objects[key]
	s.mu.RUnlock()
	if !ok {
		return nil, ErrNoSuchKey{Key: key}
	}
	if offset < 0 || offset > int64(len(data)) {
		return nil, fmt.Errorf("s3: range start %d out of bounds for %q (%d bytes)", offset, key, len(data))
	}
	return &ObjectReader{store: s, data: data, pos: offset}, nil
}

// ObjectReader streams one ranged GET.
type ObjectReader struct {
	store *Store
	data  []byte
	pos   int64
}

// Read implements io.Reader.
func (r *ObjectReader) Read(p []byte) (int, error) {
	if r.pos >= int64(len(r.data)) {
		return 0, fmt.Errorf("EOF")
	}
	n := copy(p, r.data[r.pos:])
	r.pos += int64(n)
	r.store.Counters.BytesReturned.Add(int64(n))
	return n, nil
}

// Pos returns the stream position.
func (r *ObjectReader) Pos() int64 { return r.pos }

// List returns keys under a prefix, sorted, with sizes.
func (s *Store) List(prefix string) ([]ObjectInfo, error) {
	s.Counters.ListRequests.Add(1)
	if err := s.maybeFail(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []ObjectInfo
	for k, v := range s.objects {
		if strings.HasPrefix(k, prefix) {
			out = append(out, ObjectInfo{Key: k, Size: int64(len(v))})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// ObjectInfo describes one object.
type ObjectInfo struct {
	Key  string
	Size int64
}

// ---------------------------------------------------------------------------
// Multipart upload (§IX: "when loading a big object, break it up into
// multiple parts and upload in parallel").

// InitiateMultipart starts an upload, returning its id.
func (s *Store) InitiateMultipart(key string) (string, error) {
	if err := s.maybeFail(); err != nil {
		return "", err
	}
	id := fmt.Sprintf("upload-%d", s.uploadID.Add(1))
	s.mu.Lock()
	s.uploads[id] = &multipartUpload{key: key, parts: map[int][]byte{}}
	s.mu.Unlock()
	return id, nil
}

// UploadPart stores one part (1-based part numbers).
func (s *Store) UploadPart(uploadID string, partNumber int, data []byte) error {
	s.Counters.PutRequests.Add(1)
	if err := s.maybeFail(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	up, ok := s.uploads[uploadID]
	if !ok {
		return fmt.Errorf("s3: unknown upload %q", uploadID)
	}
	up.parts[partNumber] = append([]byte(nil), data...)
	return nil
}

// CompleteMultipart assembles the parts in order.
func (s *Store) CompleteMultipart(uploadID string) error {
	if err := s.maybeFail(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	up, ok := s.uploads[uploadID]
	if !ok {
		return fmt.Errorf("s3: unknown upload %q", uploadID)
	}
	nums := make([]int, 0, len(up.parts))
	for n := range up.parts {
		nums = append(nums, n)
	}
	sort.Ints(nums)
	var buf bytes.Buffer
	for _, n := range nums {
		buf.Write(up.parts[n])
	}
	s.objects[up.key] = buf.Bytes()
	delete(s.uploads, uploadID)
	return nil
}

// AbortMultipart discards an upload.
func (s *Store) AbortMultipart(uploadID string) {
	s.mu.Lock()
	delete(s.uploads, uploadID)
	s.mu.Unlock()
}
