// Package fsys defines the FileSystem SPI the columnar readers and the hive
// connector use. Implementations: Local (this package), the simulated HDFS
// NameNode (internal/hdfs) and PrestoS3FileSystem (internal/s3) — the
// heterogeneous storage backends of §IV/§VII/§IX.
package fsys

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FileInfo describes one file as a listing found it. Stamp is the file's
// identity at that path: it changes whenever the file is written again, so
// what a cache keys by (path, stamp) is never served for other bytes. Each
// filesystem sets it from what it knows: a NameNode generation, an S3
// object's generation (an ETag's role), a local file's mtime and inode.
type FileInfo struct {
	Path  string
	Size  int64
	Stamp int64
}

// File supports random-access reads (the readers seek to footers and column
// chunks).
type File interface {
	io.ReaderAt
	io.Closer
	Size() int64
}

// Syncer is implemented by writers that can force buffered data to stable
// storage. *os.File (what Local.Create returns) satisfies it; wrappers that
// inject faults or buffer in memory implement it explicitly.
type Syncer interface {
	Sync() error
}

// Sync flushes w to stable storage if it supports it. Writers without a
// durability boundary (in-memory filesystems) are already "stable"; for them
// Sync is a no-op success — callers get a uniform durability call site.
func Sync(w io.Writer) error {
	if s, ok := w.(Syncer); ok {
		return s.Sync()
	}
	return nil
}

// FileSystem abstracts a (possibly remote) store of immutable files.
type FileSystem interface {
	// ListFiles lists the files directly under dir, sorted by path, each
	// with its size and stamp. This is the call the file-list cache (§VII.A)
	// fronts, and the only metadata call a scan makes.
	ListFiles(dir string) ([]FileInfo, error)
	// Open opens a file for random-access reads.
	Open(path string) (File, error)
	// Create opens a new file for sequential writing, creating parent
	// directories as needed.
	Create(path string) (io.WriteCloser, error)
}

// ---------------------------------------------------------------------------
// Local filesystem.

// Local stores files under a root directory on the OS filesystem.
type Local struct {
	Root string
}

// NewLocal creates a Local filesystem rooted at root.
func NewLocal(root string) *Local { return &Local{Root: root} }

func (l *Local) resolve(path string) string {
	return filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, "/")))
}

// ListFiles implements FileSystem.
func (l *Local) ListFiles(dir string) ([]FileInfo, error) {
	entries, err := os.ReadDir(l.resolve(dir))
	if err != nil {
		return nil, fmt.Errorf("fsys: list %s: %w", dir, err)
	}
	var out []FileInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		out = append(out, FileInfo{Path: strings.TrimSuffix(dir, "/") + "/" + e.Name(), Size: info.Size(), Stamp: localStamp(info)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Open implements FileSystem.
func (l *Local) Open(path string) (File, error) {
	f, err := os.Open(l.resolve(path))
	if err != nil {
		return nil, fmt.Errorf("fsys: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close() // already failing: the Stat error is the one to report
		return nil, err
	}
	return &localFile{File: f, size: st.Size()}, nil
}

// Create implements FileSystem.
func (l *Local) Create(path string) (io.WriteCloser, error) {
	full := l.resolve(path)
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(full)
	if err != nil {
		return nil, fmt.Errorf("fsys: create %s: %w", path, err)
	}
	return f, nil
}

type localFile struct {
	*os.File
	size int64
}

func (f *localFile) Size() int64 { return f.size }

// ---------------------------------------------------------------------------
// In-memory helpers shared by simulators and tests.

// BytesFile is a File over a byte slice.
type BytesFile struct {
	Data []byte
}

// ReadAt implements io.ReaderAt.
func (b *BytesFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(b.Data)) {
		return 0, io.EOF
	}
	n := copy(p, b.Data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Close implements io.Closer.
func (b *BytesFile) Close() error { return nil }

// Size implements File.
func (b *BytesFile) Size() int64 { return int64(len(b.Data)) }
