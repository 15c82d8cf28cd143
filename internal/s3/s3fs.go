package s3

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"time"

	"prestolite/internal/fault"
	"prestolite/internal/fsys"
)

// FileSystemConfig tunes PrestoS3FileSystem behavior; the ablation benches
// flip the optimizations off.
type FileSystemConfig struct {
	// LazySeek defers the ranged GET until a read actually happens and
	// reuses the open stream for sequential reads (§IX optimization 1).
	LazySeek bool
	// MaxRetries bounds exponential backoff attempts (§IX optimization 2);
	// 0 disables retries entirely.
	MaxRetries int
	// BaseBackoff is the initial backoff (doubles per attempt, jittered).
	BaseBackoff time.Duration
	// MultipartPartSize triggers multipart upload for larger writes
	// (§IX optimization 4); 0 disables multipart.
	MultipartPartSize int
	// Clock drives the backoff sleeps; nil means real time. Fault-injection
	// tests substitute a manual clock so retry storms resolve instantly.
	Clock fault.Clock
}

// DefaultConfig enables everything.
func DefaultConfig() FileSystemConfig {
	return FileSystemConfig{
		LazySeek:          true,
		MaxRetries:        7,
		BaseBackoff:       time.Millisecond,
		MultipartPartSize: 4 << 20,
	}
}

// FileSystem is PrestoS3FileSystem: a FileSystem API on top of the object
// store (§IX: "we developed the PrestoS3FileSystem, which provides a
// FileSystem api on top of Amazon S3").
type FileSystem struct {
	store *Store
	cfg   FileSystemConfig

	// Retries counts backoff retries performed (for tests).
	Retries struct{ N int64 }
	mu      sync.Mutex
}

// NewFileSystem wraps a store.
func NewFileSystem(store *Store, cfg FileSystemConfig) *FileSystem {
	return &FileSystem{store: store, cfg: cfg}
}

func key(path string) string { return strings.TrimPrefix(path, "/") }

// withBackoff retries transient errors with exponential backoff + jitter.
func (fs *FileSystem) withBackoff(op func() error) error {
	clock := fs.cfg.Clock
	if clock == nil {
		clock = fault.RealClock{}
	}
	backoff := fs.cfg.BaseBackoff
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil {
			return nil
		}
		if _, transient := err.(ErrSlowDown); !transient {
			return err
		}
		if attempt >= fs.cfg.MaxRetries {
			return fmt.Errorf("s3: exhausted %d retries: %w", fs.cfg.MaxRetries, err)
		}
		fs.mu.Lock()
		fs.Retries.N++
		fs.mu.Unlock()
		jitter := time.Duration(rand.Int63n(int64(backoff)/2 + 1))
		clock.Sleep(backoff + jitter)
		backoff *= 2
	}
}

// ListFiles implements fsys.FileSystem.
func (fs *FileSystem) ListFiles(dir string) ([]fsys.FileInfo, error) {
	prefix := strings.TrimSuffix(key(dir), "/") + "/"
	var objs []ObjectInfo
	err := fs.withBackoff(func() error {
		var e error
		objs, e = fs.store.List(prefix)
		return e
	})
	if err != nil {
		return nil, err
	}
	var out []fsys.FileInfo
	for _, o := range objs {
		rest := o.Key[len(prefix):]
		if strings.Contains(rest, "/") {
			continue // deeper "directory" level
		}
		out = append(out, fsys.FileInfo{Path: "/" + o.Key, Size: o.Size, Stamp: o.Gen})
	}
	return out, nil
}

// Open implements fsys.FileSystem: a HEAD for the object's size.
func (fs *FileSystem) Open(path string) (fsys.File, error) {
	var size int64
	err := fs.withBackoff(func() error {
		var e error
		size, e = fs.store.Head(key(path))
		return e
	})
	if err != nil {
		return nil, err
	}
	return &s3File{fs: fs, key: key(path), size: size}, nil
}

// Create implements fsys.FileSystem, using multipart upload when the object
// exceeds the part size.
func (fs *FileSystem) Create(path string) (io.WriteCloser, error) {
	return &s3Writer{fs: fs, key: key(path)}, nil
}

// ---------------------------------------------------------------------------
// s3File: read path with lazy seek.

// s3File adapts ranged GETs to the ReaderAt interface. Internally it keeps a
// current stream; with lazy seek enabled, a ReadAt that continues exactly
// where the stream stopped reuses it (no new GET) — the common pattern when
// a reader walks consecutive column chunks. Without lazy seek, every ReadAt
// opens a fresh connection, like a naive Hadoop FS adapter.
type s3File struct {
	fs   *FileSystem
	key  string
	size int64

	mu     sync.Mutex
	stream *ObjectReader
}

func (f *s3File) Size() int64 { return f.size }

func (f *s3File) Close() error {
	f.mu.Lock()
	f.stream = nil
	f.mu.Unlock()
	return nil
}

func (f *s3File) ReadAt(p []byte, off int64) (int, error) {
	// Claim the cached stream under the lock, then do the network I/O with
	// the lock released: a GET plus a full read can take seconds, and two
	// readers sharing the handle must not serialize behind each other's
	// network stalls. Whoever holds the claimed stream owns it exclusively.
	f.mu.Lock()
	stream := f.stream
	f.stream = nil
	f.mu.Unlock()

	if !f.fs.cfg.LazySeek || stream == nil || stream.Pos() != off {
		err := f.fs.withBackoff(func() error {
			var e error
			stream, e = f.fs.store.GetRange(f.key, off)
			return e
		})
		if err != nil {
			return 0, err
		}
	}
	n, err := io.ReadFull(stream, p)
	if err != nil {
		return n, fmt.Errorf("s3: read %q at %d: %w", f.key, off, err)
	}
	if f.fs.cfg.LazySeek {
		// Return the advanced stream for the next sequential ReadAt; naive
		// mode never reuses the connection.
		f.mu.Lock()
		f.stream = stream
		f.mu.Unlock()
	}
	return n, nil
}

// ---------------------------------------------------------------------------
// s3Writer: multipart upload.

type s3Writer struct {
	fs  *FileSystem
	key string
	buf []byte
}

func (w *s3Writer) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *s3Writer) Close() error {
	partSize := w.fs.cfg.MultipartPartSize
	if partSize <= 0 || len(w.buf) <= partSize {
		return w.fs.withBackoff(func() error { return w.fs.store.Put(w.key, w.buf) })
	}
	// Multipart: upload parts in parallel, then complete.
	var uploadID string
	if err := w.fs.withBackoff(func() error {
		var e error
		uploadID, e = w.fs.store.InitiateMultipart(w.key)
		return e
	}); err != nil {
		return err
	}
	type part struct {
		num  int
		data []byte
	}
	var parts []part
	for i, n := 0, 1; i < len(w.buf); n++ {
		end := i + partSize
		if end > len(w.buf) {
			end = len(w.buf)
		}
		parts = append(parts, part{num: n, data: w.buf[i:end]})
		i = end
	}
	errs := make(chan error, len(parts))
	for _, pt := range parts {
		pt := pt
		go func() {
			errs <- w.fs.withBackoff(func() error {
				return w.fs.store.UploadPart(uploadID, pt.num, pt.data)
			})
		}()
	}
	for range parts {
		if err := <-errs; err != nil {
			w.fs.store.AbortMultipart(uploadID)
			return err
		}
	}
	return w.fs.withBackoff(func() error { return w.fs.store.CompleteMultipart(uploadID) })
}
