package fault

import (
	"io"

	"prestolite/internal/fsys"
)

// FS wraps a fsys.FileSystem and injects errors and latency into its
// operations — the remote-object-store failure modes (stalled reads, 5xx
// storms) the Parquet readers and the hive connector must survive, plus the
// write-path failure modes (failed creates, torn/short writes, fsync errors)
// the ingest WAL must survive.
type FS struct {
	Injector *Injector
	Base     fsys.FileSystem
}

// apply charges the injected delay and returns the injected error, if any.
func (f *FS) apply(op, path string) error {
	_, err := f.decide(op, path, 0, 0)
	return err
}

// decide is apply for an operation whose decision the caller needs: a read
// may come back corrupted rather than failed.
func (f *FS) decide(op, path string, off, n int64) (fsDecision, error) {
	d := f.Injector.decideFS(op, path, off, n)
	if d.delay > 0 {
		f.Injector.Counters.FSDelays.Add(1)
		f.Injector.clock().Sleep(d.delay)
	}
	if d.err {
		f.Injector.Counters.FSErrors.Add(1)
		return d, &InjectedError{Op: "fs-" + op, Target: path}
	}
	return d, nil
}

// ListFiles implements fsys.FileSystem.
func (f *FS) ListFiles(dir string) ([]fsys.FileInfo, error) {
	if err := f.apply("list", dir); err != nil {
		return nil, err
	}
	return f.Base.ListFiles(dir)
}

// Open implements fsys.FileSystem; the returned File injects faults into
// every ReadAt.
func (f *FS) Open(path string) (fsys.File, error) {
	if err := f.apply("open", path); err != nil {
		return nil, err
	}
	file, err := f.Base.Open(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, path: path, File: file}, nil
}

// Create implements fsys.FileSystem; the returned writer injects faults into
// every Write and Sync ("write"/"sync" ops), including torn writes that
// persist only a seeded-random prefix of the buffer (FSRule.TornProb).
func (f *FS) Create(path string) (io.WriteCloser, error) {
	if err := f.apply("create", path); err != nil {
		return nil, err
	}
	w, err := f.Base.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultWriter{fs: f, path: path, w: w}, nil
}

// faultWriter injects faults into sequential writes and fsyncs.
type faultWriter struct {
	fs   *FS
	path string
	w    io.WriteCloser
}

// Write implements io.Writer. A torn decision writes a seeded-random strict
// prefix of p to the base writer, then reports failure — the caller sees an
// error, but the prefix is on disk, exactly like a crash mid-write.
func (fw *faultWriter) Write(p []byte) (int, error) {
	d := fw.fs.Injector.decideFS("write", fw.path, 0, 0)
	if d.delay > 0 {
		fw.fs.Injector.Counters.FSDelays.Add(1)
		fw.fs.Injector.clock().Sleep(d.delay)
	}
	if d.torn && len(p) > 0 {
		n := fw.fs.Injector.intn(len(p))
		if n > 0 {
			if _, werr := fw.w.Write(p[:n]); werr != nil {
				return 0, werr
			}
		}
		fw.fs.Injector.Counters.FSTornWrites.Add(1)
		fw.fs.Injector.Counters.FSErrors.Add(1)
		return n, &InjectedError{Op: "fs-torn-write", Target: fw.path}
	}
	if d.err {
		fw.fs.Injector.Counters.FSErrors.Add(1)
		return 0, &InjectedError{Op: "fs-write", Target: fw.path}
	}
	return fw.w.Write(p)
}

// Sync implements fsys.Syncer: an injected sync error models fsync returning
// EIO with the page-cache state unknown.
func (fw *faultWriter) Sync() error {
	if err := fw.fs.apply("sync", fw.path); err != nil {
		return err
	}
	return fsys.Sync(fw.w)
}

// Close implements io.Closer (never faulted: close is the caller's last
// chance to release the descriptor, and every injected failure mode a close
// error would model is already covered by write/sync faults).
func (fw *faultWriter) Close() error { return fw.w.Close() }

// faultFile injects faults into random-access reads.
type faultFile struct {
	fs   *FS
	path string
	fsys.File
}

// ReadAt implements io.ReaderAt.
func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	d, err := f.fs.decide("read", f.path, off, int64(len(p)))
	if err != nil {
		return 0, err
	}
	n, err := f.File.ReadAt(p, off)
	if d.corrupt {
		for i := range p[:n] {
			p[i] = ^p[i]
		}
		f.fs.Injector.Counters.FSCorruptReads.Add(1)
	}
	return n, err
}
