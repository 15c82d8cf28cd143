// Write-ahead log: the durability layer under the append log. Every record
// batch, topic creation and offset commit is framed (length + CRC32) into
// segment files on a fsys.FileSystem before the in-memory state changes, so
// process death loses nothing that was acked. Recovery replays the frames —
// truncating torn tails left by a crash mid-write — and rebuilds topics,
// partition contents and consumer-group committed offsets. Files are written
// once and never appended across restarts (the FileSystem SPI has no append):
// each restart bumps an epoch and rotation opens fresh segments, so a
// possibly-torn tail is never written past.
package ingest

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prestolite/internal/fault"
	"prestolite/internal/frame"
	"prestolite/internal/fsys"
	"prestolite/internal/obs"
)

// FsyncPolicy selects when the WAL forces frames to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: an acked record is durable.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs at most once per WALConfig.FsyncEvery: acked
	// records inside the window can be lost to a crash (group commit). A
	// stream an append leaves unsynced is synced FsyncEvery after its last
	// sync even if no append follows.
	FsyncInterval
	// FsyncNever leaves flushing to the OS: fastest, weakest.
	FsyncNever
)

// WALConfig tunes the write-ahead log.
type WALConfig struct {
	// Dir is the directory (within the FileSystem) holding WAL files
	// (default "wal").
	Dir string
	// SegmentBytes rotates a partition's segment file once it exceeds this
	// size (default 1 MiB).
	SegmentBytes int64
	// Fsync is the durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval cadence (default 50ms).
	FsyncEvery time.Duration
	// Clock times interval syncs (default real time); chaos replay injects a
	// fault.ManualClock.
	Clock fault.Clock
}

func (c WALConfig) withDefaults() WALConfig {
	if c.Dir == "" {
		c.Dir = "wal"
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 1 << 20
	}
	if c.FsyncEvery <= 0 {
		c.FsyncEvery = 50 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = fault.RealClock{}
	}
	return c
}

// WALStats is the recovery and durability census of one WAL.
type WALStats struct {
	Fsyncs             int64
	RecoveredRecords   int64
	RecoveredTopics    int64
	TruncatedTailBytes int64
}

// WAL owns the durable files behind a Log. All appends go through it before
// the in-memory structures change.
type WAL struct {
	fs  fsys.FileSystem
	cfg WALConfig

	fsyncs             atomic.Int64
	recoveredRecords   atomic.Int64
	recoveredTopics    atomic.Int64
	truncatedTailBytes atomic.Int64

	// mu guards the manifest and offsets streams (segment streams are owned
	// by their partition and serialized by the partition lock).
	mu       sync.Mutex
	epoch    int
	manifest *walStream
	offsets  *walStream

	// Pending interval syncs (syncLater) wait on closing; stopTimers ends
	// and waits for them.
	closing   chan struct{}
	closeOnce sync.Once
	timers    sync.WaitGroup
}

func newWAL(fs fsys.FileSystem, cfg WALConfig) *WAL {
	return &WAL{fs: fs, cfg: cfg.withDefaults(), closing: make(chan struct{})}
}

// Stats snapshots the WAL's counters.
func (w *WAL) Stats() WALStats {
	return WALStats{
		Fsyncs:             w.fsyncs.Load(),
		RecoveredRecords:   w.recoveredRecords.Load(),
		RecoveredTopics:    w.recoveredTopics.Load(),
		TruncatedTailBytes: w.truncatedTailBytes.Load(),
	}
}

// RegisterObsMetrics publishes the WAL's durability metrics as computed
// gauges over its internal atomics. Implements obs.MetricsSource.
func (w *WAL) RegisterObsMetrics(reg *obs.Registry) {
	reg.GaugeFunc("wal_fsyncs", func() float64 { return float64(w.fsyncs.Load()) })
	reg.GaugeFunc("wal_recovered_records", func() float64 { return float64(w.recoveredRecords.Load()) })
	reg.GaugeFunc("wal_truncated_tail_bytes", func() float64 { return float64(w.truncatedTailBytes.Load()) })
}

// ---------------------------------------------------------------------------
// Payload codecs. Row cells carry a one-byte type tag so the decoded value
// has the exact Go type the producer appended (the druid store type-checks
// cells strictly).

const (
	valNil byte = iota
	valBool
	valInt64
	valFloat64
	valString
	valBytes
	valTime
)

func appendCell(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, valNil), nil
	case bool:
		return frame.AppendBool(append(dst, valBool), x), nil
	case int64:
		return frame.AppendVarint(append(dst, valInt64), x), nil
	case float64:
		return frame.AppendFloat64(append(dst, valFloat64), x), nil
	case string:
		return frame.AppendString(append(dst, valString), x), nil
	case []byte:
		return frame.AppendBytes(append(dst, valBytes), x), nil
	case time.Time:
		return frame.AppendVarint(append(dst, valTime), x.UnixNano()), nil
	default:
		return nil, fmt.Errorf("ingest: wal cannot encode cell of type %T", v)
	}
}

func readCell(r *frame.Reader) any {
	switch tag := r.Byte(); tag {
	case valNil:
		return nil
	case valBool:
		return r.Bool()
	case valInt64:
		return r.Varint()
	case valFloat64:
		return r.Float64()
	case valString:
		return r.Str()
	case valBytes:
		return append([]byte(nil), r.Bytes()...)
	case valTime:
		return time.Unix(0, r.Varint())
	default:
		r.Fail(fmt.Errorf("ingest: wal payload: unknown cell tag %d", tag))
		return nil
	}
}

// walPayload wraps a payload decoding failure as the WAL's.
func walPayload(err error) error {
	if err != nil {
		return fmt.Errorf("ingest: wal payload: %w", err)
	}
	return nil
}

// encodeBatch frames one Topic.Append batch: record count, then per record
// offset, event time, key and tagged row cells.
func encodeBatch(recs []Record) ([]byte, error) {
	dst := frame.AppendUvarint(nil, uint64(len(recs)))
	for _, rec := range recs {
		dst = frame.AppendUvarint(dst, uint64(rec.Offset))
		dst = frame.AppendVarint(dst, rec.Time.UnixNano())
		dst = frame.AppendString(dst, rec.Key)
		dst = frame.AppendUvarint(dst, uint64(len(rec.Row)))
		for _, cell := range rec.Row {
			var err error
			dst, err = appendCell(dst, cell)
			if err != nil {
				return nil, err
			}
		}
	}
	return dst, nil
}

// decodeBatch reads what encodeBatch wrote. Every count is checked against
// the bytes left before anything is allocated for it.
func decodeBatch(payload []byte) ([]Record, error) {
	r := frame.NewReader(payload)
	recs := make([]Record, r.Count())
	for i := range recs {
		rec := &recs[i]
		rec.Offset = int64(r.Uvarint())
		rec.Time = time.Unix(0, r.Varint())
		rec.Key = r.Str()
		if cells := r.Count(); cells > 0 {
			rec.Row = make([]any, cells)
			for c := range rec.Row {
				rec.Row[c] = readCell(r)
			}
		}
	}
	if err := walPayload(r.Close()); err != nil {
		return nil, err
	}
	return recs, nil
}

func encodeTopic(name string, partitions int) []byte {
	return frame.AppendUvarint(frame.AppendString(nil, name), uint64(partitions))
}

// MaxPartitions bounds a topic's partition count: CreateTopic refuses more,
// and so does recovery of a topic record.
const MaxPartitions = 4096

// ErrInvalidRecord fails recovery at a WAL record whose frame is intact (its
// CRC holds) but whose contents are out of range: a topic with a partition
// count CreateTopic refuses, or a committed offset for a partition outside
// its topic. Such a record is not a torn tail, so replay stops with this
// error instead of truncating.
var ErrInvalidRecord = errors.New("ingest: wal record out of range")

func decodeTopic(payload []byte) (name string, partitions int, err error) {
	r := frame.NewReader(payload)
	name = r.Str()
	n := r.Uvarint()
	if err := walPayload(r.Close()); err != nil {
		return "", 0, err
	}
	if n < 1 || n > MaxPartitions {
		return "", 0, fmt.Errorf("%w: topic %q with %d partitions", ErrInvalidRecord, name, n)
	}
	return name, int(n), nil
}

func encodeOffset(group, topic string, partition int, offset int64) []byte {
	dst := frame.AppendString(frame.AppendString(nil, group), topic)
	return frame.AppendUvarint(frame.AppendUvarint(dst, uint64(partition)), uint64(offset))
}

func decodeOffset(payload []byte) (group, topic string, partition int, offset int64, err error) {
	r := frame.NewReader(payload)
	group, topic = r.Str(), r.Str()
	p := r.Uvarint()
	offset = int64(r.Uvarint())
	if err := walPayload(r.Close()); err != nil {
		return "", "", 0, 0, err
	}
	if p >= MaxPartitions {
		return "", "", 0, 0, fmt.Errorf("%w: offset of %s partition %d", ErrInvalidRecord, topic, p)
	}
	return group, topic, int(p), offset, nil
}

// ---------------------------------------------------------------------------
// walStream: one logical append stream over a sequence of write-once files.

// walStream appends frames to the current file of a rotating sequence. A
// failed write or sync poisons the current file (its tail may hold a torn
// frame); the next append rotates to a fresh file, so recovery — which stops
// a file's replay at the first corrupt frame — resumes with the frames
// written after the failure. Not safe for concurrent use: the owner
// (partition lock or WAL.mu) serializes.
type walStream struct {
	wal      *WAL
	owner    sync.Locker // the lock that serializes this stream
	nameFor  func(seq int) string
	seq      int // last file sequence used (next rotation opens seq+1)
	w        io.WriteCloser
	size     int64
	rotateAt int64 // rotate when size exceeds this; 0 = never by size
	poisoned bool
	dirty    bool
	armed    bool // an interval sync is pending (syncLater)
	lastSync time.Time
}

func (s *walStream) append(payload []byte, forceSync bool) error {
	if s.w == nil || s.poisoned || (s.rotateAt > 0 && s.size >= s.rotateAt) {
		if err := s.rotate(); err != nil {
			return err
		}
	}
	// One Write call per frame, so a torn write can only leave a partial
	// frame — never interleave two.
	n, err := s.w.Write(frame.Append(make([]byte, 0, frame.HeaderSize+len(payload)), payload))
	s.size += int64(n)
	if n > 0 {
		s.dirty = true
	}
	if err != nil {
		s.poisoned = true
		return err
	}
	if forceSync {
		return s.sync()
	}
	switch s.wal.cfg.Fsync {
	case FsyncAlways:
		return s.sync()
	case FsyncInterval:
		if now := s.wal.cfg.Clock.Now(); now.Sub(s.lastSync) >= s.wal.cfg.FsyncEvery {
			return s.sync()
		}
		if !s.armed {
			s.armed = true
			s.wal.syncLater(s)
		}
	}
	return nil
}

// syncLater syncs s once FsyncEvery has passed since its last sync, under
// the lock that owns it, so the frames an append left unsynced are durable
// within a window even when no append follows. A stream synced in the
// meantime waits out the rest of its new window. Log.Close ends the wait.
func (w *WAL) syncLater(s *walStream) {
	w.timers.Add(1)
	go func() {
		defer w.timers.Done()
		for {
			s.owner.Lock()
			wait := s.lastSync.Add(w.cfg.FsyncEvery).Sub(w.cfg.Clock.Now())
			if !s.dirty || wait <= 0 {
				s.armed = false
				_ = s.sync() // a failure poisons s: the next append rotates past the file
				s.owner.Unlock()
				return
			}
			s.owner.Unlock()
			select {
			case <-w.closing:
				return
			case <-w.cfg.Clock.After(wait):
			}
		}
	}()
}

// stopTimers ends every pending interval sync and waits for it to exit.
func (w *WAL) stopTimers() {
	w.closeOnce.Do(func() { close(w.closing) })
	w.timers.Wait()
}

// sync forces buffered frames to stable storage. A sync error poisons the
// file: fsync failure leaves the on-disk state unknown, so the stream never
// writes past it.
func (s *walStream) sync() error {
	if s.w == nil || !s.dirty {
		return nil
	}
	if err := fsys.Sync(s.w); err != nil {
		s.poisoned = true
		return err
	}
	s.dirty = false
	s.lastSync = s.wal.cfg.Clock.Now()
	s.wal.fsyncs.Add(1)
	return nil
}

// rotate closes the current file and opens the next in sequence.
func (s *walStream) rotate() error {
	if s.w != nil {
		syncErr := s.sync()
		closeErr := s.w.Close()
		s.w = nil
		// A poisoned file is being abandoned: its sync/close failures are
		// the fault we are rotating away from, not new ones to report.
		if !s.poisoned {
			if syncErr != nil {
				return syncErr
			}
			if closeErr != nil {
				return closeErr
			}
		}
	}
	w, err := s.wal.fs.Create(s.nameFor(s.seq + 1))
	if err != nil {
		return err
	}
	s.seq++
	s.w = w
	s.size = 0
	s.poisoned = false
	s.dirty = false
	return nil
}

// close syncs and closes the current file.
func (s *walStream) close() error {
	if s.w == nil {
		return nil
	}
	syncErr := s.sync()
	closeErr := s.w.Close()
	s.w = nil
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// ---------------------------------------------------------------------------
// Stream construction and WAL-level appends.

func (w *WAL) manifestName(seq int) string {
	return fmt.Sprintf("%s/topics-%06d-%06d.log", w.cfg.Dir, w.epoch, seq)
}

func (w *WAL) offsetsName(seq int) string {
	return fmt.Sprintf("%s/offsets-%06d-%06d.log", w.cfg.Dir, w.epoch, seq)
}

func (w *WAL) segmentName(topic string, p, seq int) string {
	return fmt.Sprintf("%s/t/%s/%d/seg-%06d.log", w.cfg.Dir, topic, p, seq)
}

// segmentStream creates the stream for one partition, owned by its lock,
// continuing the file sequence after the last recovered segment.
func (w *WAL) segmentStream(topic string, p, lastSeq int, owner sync.Locker) *walStream {
	return &walStream{
		wal:      w,
		owner:    owner,
		nameFor:  func(seq int) string { return w.segmentName(topic, p, seq) },
		seq:      lastSeq,
		rotateAt: w.cfg.SegmentBytes,
	}
}

// appendTopic durably records a topic creation (always synced: rare and
// load-bearing — losing it orphans every segment under the topic).
func (w *WAL) appendTopic(name string, partitions int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.manifest == nil {
		w.manifest = &walStream{wal: w, owner: &w.mu, nameFor: w.manifestName}
	}
	return w.manifest.append(encodeTopic(name, partitions), true)
}

// appendCommit durably records a consumer-group offset commit under the
// configured fsync policy.
func (w *WAL) appendCommit(group, topic string, partition int, offset int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.offsets == nil {
		w.offsets = &walStream{wal: w, owner: &w.mu, nameFor: w.offsetsName, rotateAt: w.cfg.SegmentBytes}
	}
	return w.offsets.append(encodeOffset(group, topic, partition, offset), false)
}

// closeStreams syncs and closes the manifest and offsets streams (partition
// streams are closed by Log.Close under their partition locks).
func (w *WAL) closeStreams() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var first error
	for _, s := range []*walStream{w.manifest, w.offsets} {
		if s == nil {
			continue
		}
		if err := s.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ---------------------------------------------------------------------------
// Recovery.

// recover rebuilds l's topics, partition records and committed offsets from
// the WAL directory, then positions the WAL to write a fresh epoch.
func (w *WAL) recover(l *Log) error {
	files, err := w.fs.ListFiles(w.cfg.Dir)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			w.epoch = 1
			return nil // fresh WAL: nothing to replay
		}
		return fmt.Errorf("ingest: wal recovery: %w", err)
	}
	maxEpoch := 0
	var topicFiles, offsetFiles []fsys.FileInfo
	for _, fi := range files {
		base := fi.Path[strings.LastIndexByte(fi.Path, '/')+1:]
		var epoch, seq int
		switch {
		case parseWALName(base, "topics", &epoch, &seq):
			topicFiles = append(topicFiles, fi)
		case parseWALName(base, "offsets", &epoch, &seq):
			offsetFiles = append(offsetFiles, fi)
		default:
			continue
		}
		if epoch > maxEpoch {
			maxEpoch = epoch
		}
	}
	// Topics first: segment and offset replay need the topology. ListFiles
	// returns sorted paths, so zero-padded epoch/seq replay in write order.
	for _, fi := range topicFiles {
		err := w.replayFile(fi, func(payload []byte) error {
			name, partitions, err := decodeTopic(payload)
			if err != nil {
				return err
			}
			if _, ok := l.topics[name]; ok {
				return nil // re-announced by a later epoch
			}
			t := &Topic{name: name, parts: make([]partition, partitions), wal: w}
			l.topics[name] = t
			w.recoveredTopics.Add(1)
			return nil
		})
		if err != nil {
			return err
		}
	}
	// Partition contents.
	for _, t := range l.topics {
		for p := range t.parts {
			if err := w.recoverPartition(t, p); err != nil {
				return err
			}
		}
	}
	// Committed offsets: max wins, so cross-file replay order is irrelevant.
	for _, fi := range offsetFiles {
		err := w.replayFile(fi, func(payload []byte) error {
			group, topic, partition, offset, err := decodeOffset(payload)
			if err != nil {
				return err
			}
			if t, ok := l.topics[topic]; ok && partition >= len(t.parts) {
				return fmt.Errorf("%w: offset of %s partition %d, which has %d", ErrInvalidRecord, topic, partition, len(t.parts))
			}
			k := groupKey{group, topic, partition}
			if offset > l.committed[k] {
				l.committed[k] = offset
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	w.epoch = maxEpoch + 1
	return nil
}

// recoverPartition replays a partition's segment files in sequence order,
// accepting each record whose offset continues the rebuilt log. Duplicate
// offsets (a batch re-appended after an unacked write) keep the first copy;
// an offset gap ends the replay — everything after a hole is unreachable.
func (w *WAL) recoverPartition(t *Topic, p int) error {
	dir := fmt.Sprintf("%s/t/%s/%d", w.cfg.Dir, t.name, p)
	files, err := w.fs.ListFiles(dir)
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			t.parts[p].seg = w.segmentStream(t.name, p, 0, &t.parts[p].mu)
			return nil
		}
		return fmt.Errorf("ingest: wal recovery: %w", err)
	}
	part := &t.parts[p]
	lastSeq := 0
	for _, fi := range files {
		base := fi.Path[strings.LastIndexByte(fi.Path, '/')+1:]
		var seq int
		if _, err := fmt.Sscanf(base, "seg-%06d.log", &seq); err != nil {
			continue
		}
		if seq > lastSeq {
			lastSeq = seq
		}
		err := w.replayFile(fi, func(payload []byte) error {
			recs, err := decodeBatch(payload)
			if err != nil {
				return err
			}
			for _, rec := range recs {
				switch next := int64(len(part.recs)); {
				case rec.Offset == next:
					part.recs = append(part.recs, rec)
					w.recoveredRecords.Add(1)
				case rec.Offset < next:
					// First copy wins: a duplicate is a batch retried after
					// an unacked (but possibly persisted) write.
				default:
					// A hole before this record: nothing after it in this
					// file can be contiguous either. Later files still
					// replay — a retried batch there may fill the sequence.
					return errStopReplay
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	part.seg = w.segmentStream(t.name, p, lastSeq, &part.mu)
	return nil
}

// errStopReplay aborts a file replay without failing recovery.
var errStopReplay = errors.New("ingest: stop replay")

// replayFile reads one WAL file and feeds each valid frame to fn. Replay
// stops at the first corrupt or short frame — the torn tail — and the
// skipped bytes are counted as truncated. Decode failures inside a
// CRC-valid frame are corruption too (flipped bits can collide CRC32).
func (w *WAL) replayFile(fi fsys.FileInfo, fn func(payload []byte) error) error {
	f, err := w.fs.Open(fi.Path)
	if err != nil {
		return fmt.Errorf("ingest: wal recovery: %w", err)
	}
	defer func() { _ = f.Close() }() // read-only file; nothing to flush
	buf := make([]byte, f.Size())
	if len(buf) > 0 {
		if _, err := f.ReadAt(buf, 0); err != nil {
			return fmt.Errorf("ingest: wal recovery: read %s: %w", fi.Path, err)
		}
	}
	consumed := 0
	for consumed < len(buf) {
		payload, n, ok := frame.Next(buf[consumed:])
		if !ok {
			break
		}
		if err := fn(payload); err != nil {
			switch {
			case errors.Is(err, errStopReplay):
				return nil
			case errors.Is(err, ErrInvalidRecord):
				return fmt.Errorf("ingest: wal recovery: %s: %w", fi.Path, err)
			}
			break // corrupt payload: truncate from here
		}
		consumed += n
	}
	if tail := int64(len(buf) - consumed); tail > 0 {
		w.truncatedTailBytes.Add(tail)
	}
	return nil
}

// parseWALName matches "<kind>-<epoch>-<seq>.log".
func parseWALName(base, kind string, epoch, seq *int) bool {
	n, err := fmt.Sscanf(base, kind+"-%06d-%06d.log", epoch, seq)
	return err == nil && n == 2
}
