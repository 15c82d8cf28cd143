package ingest

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"prestolite/internal/fault"
	"prestolite/internal/frame"
	"prestolite/internal/fsys"
	"prestolite/internal/obs"
)

// walSeeds mirrors the chaos suite's seed discipline: a fixed set by
// default, one seed under CHAOS_SEED for replaying a failure.
func walSeeds(t *testing.T) []int64 {
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", env, err)
		}
		return []int64{seed}
	}
	return []int64{1, 7, 42}
}

func walConfig(clock fault.Clock) WALConfig {
	return WALConfig{Fsync: FsyncAlways, Clock: clock}
}

// TestWALRecoverRoundTrip pins the basic durability contract: topics,
// records of every cell type, and committed offsets all survive a restart,
// and the recovered log keeps assigning contiguous offsets.
func TestWALRecoverRoundTrip(t *testing.T) {
	root := t.TempDir()
	clock := fault.NewManualClock(time.Unix(1_700_000_000, 0))
	l, err := NewDurableLog(fsys.NewLocal(root), walConfig(clock))
	if err != nil {
		t.Fatal(err)
	}
	topic, err := l.CreateTopic("events", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.CreateTopic("empty", 3); err != nil {
		t.Fatal(err)
	}
	base := clock.Now()
	rows := [][]any{
		{int64(1), "us", 3.5, true, nil},
		{int64(2), "de", -0.25, false, []byte{0xfe, 0xff}},
		{int64(3), "fr", 0.0, true, base.Add(time.Minute)},
	}
	for i, row := range rows {
		if _, err := topic.Append(i%2, Record{Time: base.Add(time.Duration(i) * time.Second), Key: "k" + strconv.Itoa(i), Row: row}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit("g1", "events", 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewDurableLog(fsys.NewLocal(root), walConfig(clock))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Errorf("close recovered log: %v", err)
		}
	}()
	if got := r.WAL().Stats().RecoveredRecords; got != 3 {
		t.Errorf("recovered records = %d, want 3", got)
	}
	if got := r.WAL().Stats().RecoveredTopics; got != 2 {
		t.Errorf("recovered topics = %d, want 2", got)
	}
	empty, err := r.Topic("empty")
	if err != nil || empty.Partitions() != 3 {
		t.Fatalf("empty topic not recovered: %v", err)
	}
	rt, err := r.Topic("events")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Committed("g1", "events", 0); got != 2 {
		t.Errorf("committed = %d, want 2", got)
	}
	// Partition 0 got rows 0 and 2; partition 1 got row 1.
	recs, err := rt.Fetch(0, 0, 10)
	if err != nil || len(recs) != 2 {
		t.Fatalf("partition 0 fetch: %v (%d recs)", err, len(recs))
	}
	if recs[0].Key != "k0" || !recs[0].Time.Equal(base) {
		t.Errorf("record 0 = %+v", recs[0])
	}
	wantRow := rows[0]
	for c, cell := range recs[0].Row {
		switch want := wantRow[c].(type) {
		case time.Time:
			if got, ok := cell.(time.Time); !ok || !got.Equal(want) {
				t.Errorf("cell %d = %#v, want %v", c, cell, want)
			}
		case []byte:
			if got, ok := cell.([]byte); !ok || string(got) != string(want) {
				t.Errorf("cell %d = %#v, want %v", c, cell, want)
			}
		default:
			if cell != wantRow[c] {
				t.Errorf("cell %d = %#v, want %#v", c, cell, wantRow[c])
			}
		}
	}
	// Offsets continue where the crash left off.
	off, err := rt.Append(0, Record{Time: base, Row: []any{int64(9)}})
	if err != nil {
		t.Fatal(err)
	}
	if off != 2 {
		t.Errorf("post-recovery append offset = %d, want 2", off)
	}
}

// TestWALSegmentRotation forces rotation with a tiny segment size and
// checks recovery stitches the files back together in order.
func TestWALSegmentRotation(t *testing.T) {
	root := t.TempDir()
	cfg := walConfig(fault.RealClock{})
	cfg.SegmentBytes = 256
	l, err := NewDurableLog(fsys.NewLocal(root), cfg)
	if err != nil {
		t.Fatal(err)
	}
	topic, err := l.CreateTopic("events", 1)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1_700_000_000, 0)
	const n = 60
	for i := 0; i < n; i++ {
		if _, err := topic.Append(0, Record{Time: base, Key: "key-" + strconv.Itoa(i), Row: []any{int64(i), "padding-padding", int64(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := fsys.NewLocal(root).ListFiles("wal/t/events/0")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("expected rotation to produce several segment files, got %d", len(files))
	}
	r, err := NewDurableLog(fsys.NewLocal(root), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			t.Errorf("close recovered log: %v", err)
		}
	}()
	rt, err := r.Topic("events")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := rt.Fetch(0, 0, n+10)
	if err != nil || len(recs) != n {
		t.Fatalf("recovered %d records (err %v), want %d", len(recs), err, n)
	}
	for i, rec := range recs {
		if rec.Offset != int64(i) || rec.Row[0] != int64(i) {
			t.Fatalf("record %d out of order: %+v", i, rec)
		}
	}
}

// TestWALCommittedOffsetsAcrossRestart is the consumer-group durability
// contract: after a crash, recovery must not redeliver below the committed
// offset and must redeliver everything above it. Seeded, ManualClock.
func TestWALCommittedOffsetsAcrossRestart(t *testing.T) {
	for _, seed := range walSeeds(t) {
		t.Run("seed-"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			root := t.TempDir()
			clock := fault.NewManualClock(time.Unix(1_700_000_000, 0))
			l, err := NewDurableLog(fsys.NewLocal(root), walConfig(clock))
			if err != nil {
				t.Fatal(err)
			}
			topic, err := l.CreateTopic("events", 2)
			if err != nil {
				t.Fatal(err)
			}
			tab := newEventsTable(t)
			wcfg := WriterConfig{Clock: clock}
			w := NewSegmentWriter(l, topic, tab, wcfg)

			consumed := 10 + rng.Intn(20) // per partition, delivered before the crash
			pending := 1 + rng.Intn(10)
			for p := 0; p < 2; p++ {
				for i := 0; i < consumed; i++ {
					if _, err := topic.Append(p, Record{Time: clock.Now(), Row: []any{int64(i), "us", int64(1)}}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if n := w.RunOnce(); n != 2*consumed {
				t.Fatalf("RunOnce consumed %d, want %d", n, 2*consumed)
			}
			// More records arrive after the last commit: these must be
			// redelivered in full after the crash.
			for p := 0; p < 2; p++ {
				for i := 0; i < pending; i++ {
					if _, err := topic.Append(p, Record{Time: clock.Now(), Row: []any{int64(consumed + i), "de", int64(1)}}); err != nil {
						t.Fatal(err)
					}
				}
			}
			w.Kill() // abrupt: no drain, no final commits
			// Crash: the log is abandoned without Close; recovery starts
			// from the files alone.
			r, err := NewDurableLog(fsys.NewLocal(root), walConfig(clock))
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := r.Close(); err != nil {
					t.Errorf("close recovered log: %v", err)
				}
			}()
			for p := 0; p < 2; p++ {
				if got := r.Committed(DefaultWriterGroup, "events", p); got != int64(consumed) {
					t.Errorf("partition %d committed = %d, want %d", p, got, consumed)
				}
			}
			rowsBefore := tab.Stats().Rows
			if rowsBefore != 2*consumed {
				t.Fatalf("druid rows before recovery = %d, want %d", rowsBefore, 2*consumed)
			}
			rt, err := r.Topic("events")
			if err != nil {
				t.Fatal(err)
			}
			w2 := NewSegmentWriter(r, rt, tab, wcfg)
			if n := w2.RunOnce(); n != 2*pending {
				t.Fatalf("post-recovery RunOnce consumed %d, want %d (only records above the committed offset)", n, 2*pending)
			}
			if got := tab.Stats().Rows; got != 2*(consumed+pending) {
				t.Errorf("druid rows after recovery = %d, want %d (no redelivery below committed, full redelivery above)", got, 2*(consumed+pending))
			}
		})
	}
}

// TestWALExactlyOnceRedelivery pins the crash window between druid append
// and offset commit: with the offsets WAL failing, every poll redelivers the
// batch — and the druid source watermark must swallow each redelivery.
func TestWALExactlyOnceRedelivery(t *testing.T) {
	inj := fault.NewInjector(42)
	inj.FaultFS(fault.FSRule{Path: "offsets-", Ops: []string{"write"}, ErrProb: 1})
	fs := &fault.FS{Injector: inj, Base: fsys.NewLocal(t.TempDir())}
	clock := fault.NewManualClock(time.Unix(1_700_000_000, 0))
	l, err := NewDurableLog(fs, walConfig(clock))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := l.Close(); err != nil {
			t.Logf("close: %v", err)
		}
	}()
	topic, err := l.CreateTopic("events", 1)
	if err != nil {
		t.Fatal(err)
	}
	tab := newEventsTable(t)
	w := NewSegmentWriter(l, topic, tab, WriterConfig{Clock: clock})
	reg := obs.NewRegistry()
	w.RegisterObsMetrics(reg)
	for i := 0; i < 5; i++ {
		if _, err := topic.Append(0, Record{Time: clock.Now(), Row: []any{int64(i), "us", int64(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Two polls with the commit path down: rows land once, offsets stay.
	for i := 0; i < 2; i++ {
		if n := w.RunOnce(); n != 0 {
			t.Fatalf("poll %d consumed %d with commits failing, want 0", i, n)
		}
		if got := tab.Stats().Rows; got != 5 {
			t.Fatalf("poll %d: druid rows = %d, want 5 (redelivery must dedup)", i, got)
		}
	}
	if got := l.Committed(DefaultWriterGroup, "events", 0); got != 0 {
		t.Fatalf("committed advanced to %d despite WAL failures", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["ingest_commit_errors"] < 2 {
		t.Errorf("ingest_commit_errors = %d, want >= 2", snap.Counters["ingest_commit_errors"])
	}
	if got := snap.Counters["ingest_rows_written"]; got != 5 {
		t.Errorf("ingest_rows_written = %d, want 5 (deduped redeliveries must not count)", got)
	}
	// Heal the filesystem: the next poll commits and the loop drains.
	inj.Reset()
	if n := w.RunOnce(); n != 5 {
		t.Fatalf("post-heal RunOnce consumed %d, want 5", n)
	}
	if got := tab.Stats().Rows; got != 5 {
		t.Errorf("druid rows = %d, want 5", got)
	}
	if got := l.Committed(DefaultWriterGroup, "events", 0); got != 5 {
		t.Errorf("committed = %d, want 5", got)
	}
}

// TestChaosLifecycleWALTornTail is the torn-tail recovery property test:
// for seeded random truncation points of a clean WAL segment, recovery must
// rebuild exactly the records whose frames lie fully below the cut and
// account for the truncated bytes.
func TestChaosLifecycleWALTornTail(t *testing.T) {
	for _, seed := range walSeeds(t) {
		t.Run("seed-"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			root := t.TempDir()
			l, err := NewDurableLog(fsys.NewLocal(root), walConfig(fault.RealClock{}))
			if err != nil {
				t.Fatal(err)
			}
			topic, err := l.CreateTopic("events", 1)
			if err != nil {
				t.Fatal(err)
			}
			base := time.Unix(1_700_000_000, 0)
			const n = 40
			for i := 0; i < n; i++ {
				if _, err := topic.Append(0, Record{Time: base, Key: "k" + strconv.Itoa(i), Row: []any{int64(i), "us", int64(i % 7)}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			segRel := filepath.Join("wal", "t", "events", "0", "seg-000001.log")
			data, err := os.ReadFile(filepath.Join(root, segRel))
			if err != nil {
				t.Fatal(err)
			}
			// Frame boundaries: frameEnds[i] = bytes holding records 0..i.
			var frameEnds []int
			for off := 0; off < len(data); {
				_, fn, ok := frame.Next(data[off:])
				if !ok {
					t.Fatalf("clean WAL has corrupt frame at %d", off)
				}
				off += fn
				frameEnds = append(frameEnds, off)
			}
			if len(frameEnds) != n {
				t.Fatalf("clean WAL holds %d frames, want %d", len(frameEnds), n)
			}
			cuts := []int{0, 1, frame.HeaderSize - 1, len(data) - 1, len(data)}
			for i := 0; i < 12; i++ {
				cuts = append(cuts, rng.Intn(len(data)+1))
			}
			for _, cut := range cuts {
				wantRecs := 0
				for _, end := range frameEnds {
					if end <= cut {
						wantRecs++
					}
				}
				tornRoot := t.TempDir()
				copyTree(t, root, tornRoot)
				if err := os.WriteFile(filepath.Join(tornRoot, segRel), data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				r, err := NewDurableLog(fsys.NewLocal(tornRoot), walConfig(fault.RealClock{}))
				if err != nil {
					t.Fatalf("cut %d: recovery failed: %v", cut, err)
				}
				rt, err := r.Topic("events")
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				recs, err := rt.Fetch(0, 0, n+1)
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				if len(recs) != wantRecs {
					t.Fatalf("cut %d: recovered %d records, want %d (longest valid prefix)", cut, len(recs), wantRecs)
				}
				for j, rec := range recs {
					if rec.Offset != int64(j) || rec.Row[0] != int64(j) {
						t.Fatalf("cut %d: record %d corrupt: %+v", cut, j, rec)
					}
				}
				wantTail := int64(cut)
				if wantRecs > 0 {
					wantTail = int64(cut - frameEnds[wantRecs-1])
				}
				if got := r.WAL().Stats().TruncatedTailBytes; got != wantTail {
					t.Errorf("cut %d: truncated tail bytes = %d, want %d", cut, got, wantTail)
				}
				// The recovered log stays writable past the truncation.
				if off, err := rt.Append(0, Record{Time: base, Row: []any{int64(99), "us", int64(0)}}); err != nil || off != int64(wantRecs) {
					t.Fatalf("cut %d: post-recovery append: offset %d err %v", cut, off, err)
				}
				if err := r.Close(); err != nil {
					t.Errorf("cut %d: close: %v", cut, err)
				}
			}
		})
	}
}

// TestChaosLifecycleWALTornWrites drives seeded torn-write and fsync faults
// through the WAL while the producer retries every rejected batch, then
// crashes and recovers: every acked record must come back exactly once, in
// order — torn frames are truncated, retried copies deduplicated.
func TestChaosLifecycleWALTornWrites(t *testing.T) {
	for _, seed := range walSeeds(t) {
		t.Run("seed-"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			root := t.TempDir()
			inj := fault.NewInjector(seed)
			inj.FaultFS(fault.FSRule{Path: "wal/t/", Ops: []string{"write"}, TornProb: 0.2})
			inj.FaultFS(fault.FSRule{Path: "wal/t/", Ops: []string{"sync"}, ErrProb: 0.05})
			fs := &fault.FS{Injector: inj, Base: fsys.NewLocal(root)}
			l, err := NewDurableLog(fs, walConfig(fault.RealClock{}))
			if err != nil {
				t.Fatal(err)
			}
			topic, err := l.CreateTopic("events", 2)
			if err != nil {
				t.Fatal(err)
			}
			base := time.Unix(1_700_000_000, 0)
			const n = 200
			acked := 0
			for i := 0; i < n; i++ {
				rec := Record{Time: base, Key: "k" + strconv.Itoa(i), Row: []any{int64(i), "us", int64(1)}}
				ok := false
				for attempt := 0; attempt < 50; attempt++ {
					if _, err := topic.Append(i%2, rec); err == nil {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("record %d never acked after 50 attempts", i)
				}
				acked++
			}
			if inj.Counters.FSTornWrites.Load() == 0 {
				t.Fatal("no torn writes were injected; the test exercised nothing")
			}
			// Crash without Close, recover against the pristine filesystem.
			r, err := NewDurableLog(fsys.NewLocal(root), walConfig(fault.RealClock{}))
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := r.Close(); err != nil {
					t.Errorf("close recovered log: %v", err)
				}
			}()
			rt, err := r.Topic("events")
			if err != nil {
				t.Fatal(err)
			}
			var got []int64
			for p := 0; p < 2; p++ {
				recs, err := rt.Fetch(p, 0, n+1)
				if err != nil {
					t.Fatal(err)
				}
				for j, rec := range recs {
					if rec.Offset != int64(j) {
						t.Fatalf("partition %d record %d has offset %d", p, j, rec.Offset)
					}
					got = append(got, rec.Row[0].(int64))
				}
			}
			if len(got) != acked {
				t.Fatalf("recovered %d records, want %d acked (seed %d, torn=%d, truncated=%d bytes)",
					len(got), acked, seed, inj.Counters.FSTornWrites.Load(), r.WAL().Stats().TruncatedTailBytes)
			}
			seen := map[int64]int{}
			for _, v := range got {
				seen[v]++
			}
			for i := int64(0); i < n; i++ {
				if seen[i] != 1 {
					t.Fatalf("record %d recovered %d times, want exactly once", i, seen[i])
				}
			}
		})
	}
}

// copyTree duplicates a directory tree of regular files.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer func() { _ = in.Close() }() // read-only source
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			_ = out.Close() // already failing: report the copy error
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIntervalFsyncBoundsTheWindow: under FsyncInterval an acked frame that
// no later append syncs is still synced within FsyncEvery — on a
// partition's segment stream and on the offsets stream — and a stream is
// synced at most once per window however often it is appended to.
func TestIntervalFsyncBoundsTheWindow(t *testing.T) {
	const every = 20 * time.Millisecond
	l, err := NewDurableLog(fsys.NewLocal(t.TempDir()), WALConfig{Fsync: FsyncInterval, FsyncEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := l.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	topic, err := l.CreateTopic("events", 1)
	if err != nil {
		t.Fatal(err)
	}
	fsyncs := func() int64 { return l.WAL().Stats().Fsyncs }
	// settle waits out the silence after the last append, then expects
	// exactly want syncs: the pending one happened, and nothing else did.
	settle := func(stream string, want int64) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); fsyncs() < want && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(2 * every)
		if got := fsyncs(); got != want {
			t.Fatalf("%s: %d fsyncs after the silence, want %d", stream, got, want)
		}
	}
	rec := func(i int) Record { return Record{Time: time.Now(), Row: []any{int64(i)}} }

	// Two appends inside one window: the first syncs at once, the second is
	// acked unsynced and must not stay so.
	base := fsyncs()
	for i := 0; i < 2; i++ {
		if _, err := topic.Append(0, rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	settle("segment", base+2)

	// The same for the offsets stream.
	for off := int64(1); off <= 2; off++ {
		if err := l.Commit("g", "events", 0, off); err != nil {
			t.Fatal(err)
		}
	}
	settle("offsets", base+4)

	// A steady stream of appends: one sync per window, plus the last.
	base = fsyncs()
	start := time.Now()
	for i := 0; i < 40; i++ {
		if _, err := topic.Append(0, rec(i)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	span := time.Since(start)
	for deadline := time.Now().Add(2 * time.Second); fsyncs() == base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(2 * every)
	if got, max := fsyncs()-base, int64(span/every)+2; got < 1 || got > max {
		t.Errorf("%d fsyncs over %v of appends, want 1..%d", got, span, max)
	}
}

// FuzzDecodeBatch: any payload is a batch or an error — no panic, and no
// count read from disk allocates past the payload's size — and a batch that
// reads encodes back to the same bytes.
func FuzzDecodeBatch(f *testing.F) {
	at := time.Unix(1_700_000_000, 5)
	for _, recs := range [][]Record{
		nil,
		{{Offset: 0, Time: at, Key: "k0", Row: []any{int64(1), "us", 3.5, true, nil}}},
		{
			{Offset: 7, Time: at, Key: "", Row: []any{int64(-2), "de", -0.25, false, []byte{0xfe, 0xff}}},
			{Offset: 8, Time: at.Add(time.Second), Key: "k", Row: []any{at.Add(time.Minute), []byte{}}},
		},
	} {
		payload, err := encodeBatch(recs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, payload []byte) {
		recs, err := decodeBatch(payload)
		if err != nil {
			return
		}
		if len(recs) > len(payload) {
			t.Fatalf("%d bytes read as %d records", len(payload), len(recs))
		}
		again, err := encodeBatch(recs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("a batch that read does not encode back to itself:\n%x\n%x", payload, again)
		}
	})
}

// TestWALRecoveryRefusesOutOfRangeRecords: a record whose frame is intact
// but whose contents no CreateTopic or Commit could have written fails
// recovery with ErrInvalidRecord — it neither allocates a partition table
// of the count it names nor panics, and it is not truncated away as if torn.
func TestWALRecoveryRefusesOutOfRangeRecords(t *testing.T) {
	forgedTopic := func(partitions uint64) []byte {
		return frame.AppendUvarint(frame.AppendString(nil, "events"), partitions)
	}
	forgedOffset := func(partition uint64) []byte {
		dst := frame.AppendString(frame.AppendString(nil, "g"), "events")
		return frame.AppendUvarint(frame.AppendUvarint(dst, partition), 1)
	}
	for _, tc := range []struct {
		name            string
		topics, offsets [][]byte
	}{
		{name: "no partitions", topics: [][]byte{forgedTopic(0)}},
		{name: "a huge partition count", topics: [][]byte{forgedTopic(1 << 40)}},
		{name: "a count that wraps negative as an int", topics: [][]byte{forgedTopic(1 << 63)}},
		{name: "one partition over the bound", topics: [][]byte{forgedTopic(MaxPartitions + 1)}},
		{name: "an offset past its topic's partitions", topics: [][]byte{encodeTopic("events", 2)}, offsets: [][]byte{forgedOffset(2)}},
		{name: "an offset partition that wraps negative", topics: [][]byte{encodeTopic("events", 2)}, offsets: [][]byte{forgedOffset(1 << 63)}},
		{name: "an offset partition over the bound, topic unknown", offsets: [][]byte{forgedOffset(MaxPartitions)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := fsys.NewLocal(t.TempDir())
			write := func(path string, payloads [][]byte) {
				if len(payloads) == 0 {
					return
				}
				var buf []byte
				for _, p := range payloads {
					buf = frame.Append(buf, p)
				}
				w, err := fs.Create(path)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.Write(buf); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}
			write("wal/topics-000001-000001.log", tc.topics)
			write("wal/offsets-000001-000001.log", tc.offsets)
			l, err := NewDurableLog(fs, walConfig(fault.RealClock{}))
			if !errors.Is(err, ErrInvalidRecord) {
				if l != nil {
					_ = l.Close() // the failure is the missing error
				}
				t.Fatalf("recovery error = %v, want ErrInvalidRecord", err)
			}
		})
	}
	// A topic at the bound is still a topic.
	l := NewLog()
	if _, err := l.CreateTopic("wide", MaxPartitions); err != nil {
		t.Fatal(err)
	}
	if _, err := l.CreateTopic("wider", MaxPartitions+1); err == nil {
		t.Error("CreateTopic took more than MaxPartitions partitions")
	}
}
