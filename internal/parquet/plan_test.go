package parquet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/expr"
	"prestolite/internal/fsys"
	"prestolite/internal/types"
)

// fiveColumns writes rows of five BIGINT columns a..e (a = row number), not
// dictionary-encoded, so every chunk is one page run and no two of a, c and
// e touch in the file.
func fiveColumns(t *testing.T, rows, rowGroupRows int) (*fsys.BytesFile, *FileMeta, *Schema) {
	t.Helper()
	names := []string{"a", "b", "c", "d", "e"}
	s, err := NewSchema(names, []*types.Type{types.Bigint, types.Bigint, types.Bigint, types.Bigint, types.Bigint})
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]any, rows)
	for i := range data {
		data[i] = []any{int64(i), int64(i * 2), int64(i * 3), int64(i * 4), int64(i * 5)}
	}
	f := writeFile(t, s, data, WriterOptions{RowGroupRows: rowGroupRows, DisableDictionary: true}, true)
	meta, schema, err := ReadFooter(f)
	if err != nil {
		t.Fatal(err)
	}
	return f, meta, schema
}

// gateFile lets a ReadAt through only in the company of k-1 others: calls
// wait until k of them are in flight, then all proceed. A reader that issues
// its reads one at a time never gets past the first.
type gateFile struct {
	*fsys.BytesFile
	k int

	mu      sync.Mutex
	waiting int
	gate    chan struct{}
	reads   int
}

func (f *gateFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	f.reads++
	f.waiting++
	if f.gate == nil {
		f.gate = make(chan struct{})
	}
	gate := f.gate
	if f.waiting == f.k {
		close(gate)
		f.waiting, f.gate = 0, nil
	}
	f.mu.Unlock()
	select {
	case <-gate:
	case <-time.After(10 * time.Second): // not a measurement: the failure mode is a deadlock
		return 0, fmt.Errorf("gateFile: read at %d never had %d reads in flight", off, f.k)
	}
	return f.BytesFile.ReadAt(p, off)
}

// A row group's projected ranges are read together, and the predicate leaf
// of the next row group is in flight with the current one's: through a file
// that only serves reads in pairs, a scan with a predicate on a and outputs
// c and e completes in three paired fetches — {a of row group 0, a of row
// group 1}, {c, e of row group 0}, {c, e of row group 1}. The page-at-a-time
// reader deadlocks on its first chunk. Every row passes the IN list, but the
// statistics cannot prove it, so a is read and evaluated.
func TestPlanReadsRangesTogetherAndAhead(t *testing.T) {
	f, meta, schema := fiveColumns(t, 8, 4)
	gate := &gateFile{BytesFile: f, k: 2}
	in := []any{int64(0), int64(1), int64(2), int64(3), int64(4), int64(5), int64(6), int64(7)}
	opts := AllOptimizations([]string{"c", "e"}, []expr.Comparison{{Column: "a", Op: expr.OpIn, Values: in}})
	r, err := NewReaderWithFooter(gate, meta, schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := drainReader(t, r.Next)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	want := make([][]any, 8)
	for i := range want {
		want[i] = []any{int64(i * 3), int64(i * 5)}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v", got)
	}
	m := r.Metrics
	if gate.reads != 6 || m.RangesRead.Load() != 6 || m.FetchBatches.Load() != 3 {
		t.Errorf("reads = %d, ranges = %d, batches = %d; want 6, 6, 3", gate.reads, m.RangesRead.Load(), m.FetchBatches.Load())
	}
}

// What one read is: a chunk's dictionary page and data pages, and the chunks
// of neighbouring leaves, as far as they touch; a gap splits the read. Bytes
// read equal the bytes of the chunks asked for.
func TestPlanMergesTouchingRangesOnly(t *testing.T) {
	s := tripSchema(t)
	rows := make([][]any, 64)
	for i := range rows {
		rows[i] = []any{[]any{fmt.Sprintf("d-%d", i%4), int64(i % 3), []any{"toyota", int64(2015 + i%2)}}, "2017-03-02", float64(i), []any{"x"}, [][2]any{}}
	}
	f := &countingFile{BytesFile: writeFile(t, s, rows, WriterOptions{RowGroupRows: 64}, true)}
	meta, schema, err := ReadFooter(f)
	if err != nil {
		t.Fatal(err)
	}
	chunkBytes := func(paths ...string) int64 {
		var n int64
		for _, p := range paths {
			li := schema.Resolve(p).LeafIndex
			for _, cm := range meta.RowGroups[0].Chunks {
				if cm.LeafIndex == li {
					if !cm.Dictionary {
						t.Fatalf("%s is not dictionary-encoded: the test wants a dictionary page in front of the data", p)
					}
					n += int64(cm.DictLen) + int64(cm.DataLen)
				}
			}
		}
		return n
	}
	for _, tc := range []struct {
		columns []string
		reads   int64
	}{
		{[]string{"base.driver_uuid"}, 1},                                                 // dictionary + data: one read
		{[]string{"base.driver_uuid", "base.city_id", "base.vehicle.make"}, 1},            // three leaves in a row
		{[]string{"base.driver_uuid", "base.vehicle.make"}, 2},                            // city_id between them is not read
		{[]string{"base.driver_uuid", "base.city_id", "base.vehicle.year", "datestr"}, 2}, // make is the gap
	} {
		f.reads.Store(0)
		r, err := NewReaderWithFooter(f, meta, schema, AllOptimizations(tc.columns, nil))
		if err != nil {
			t.Fatal(err)
		}
		if n := len(drainReader(t, r.Next)); n != 64 {
			t.Fatalf("%v: %d rows", tc.columns, n)
		}
		if f.reads.Load() != tc.reads || r.Metrics.RangesRead.Load() != tc.reads {
			t.Errorf("%v: %d reads, %d ranges, want %d", tc.columns, f.reads.Load(), r.Metrics.RangesRead.Load(), tc.reads)
		}
		if got, want := r.Metrics.BytesRead.Load(), chunkBytes(tc.columns...); got != want {
			t.Errorf("%v: read %d bytes for chunks of %d", tc.columns, got, want)
		}
	}
}

// A footer whose chunk lies outside the file, has a negative length, or
// claims more entries than its bytes can hold is refused when the footer is
// read — for both readers, with an error, before any chunk is read or
// anything allocated.
func TestReadersValidateTheFooterAtOpen(t *testing.T) {
	f, _, _ := fiveColumns(t, 8, 4)
	mutations := map[string]func(*FileMeta){
		"negative data length":  func(m *FileMeta) { m.RowGroups[1].Chunks[2].DataLen = -5 },
		"data past the end":     func(m *FileMeta) { m.RowGroups[1].Chunks[2].DataLen = int32(len(f.Data)) },
		"negative offset":       func(m *FileMeta) { m.RowGroups[0].Chunks[0].DataOffset = -1 },
		"offset past the end":   func(m *FileMeta) { m.RowGroups[0].Chunks[0].DataOffset = 1 << 40 },
		"dictionary outside":    func(m *FileMeta) { c := &m.RowGroups[0].Chunks[1]; c.Dictionary, c.DictOffset, c.DictLen = true, 4, -1 },
		"more rows than bytes":  func(m *FileMeta) { m.RowGroups[0].NumRows = 1 << 40 },
		"more entries than fit": func(m *FileMeta) { m.RowGroups[0].NumRows, m.RowGroups[0].Chunks[0].NumEntries = 1<<40, 1<<40 },
		"negative rows":         func(m *FileMeta) { m.RowGroups[1].NumRows = -1 },
		"rows without chunks":   func(m *FileMeta) { m.RowGroups[1].Chunks = nil },
		"leaf out of range":     func(m *FileMeta) { m.RowGroups[1].Chunks[4].LeafIndex = 17 },
	}
	for name, mutate := range mutations {
		meta, _, err := ReadFooter(f)
		if err != nil {
			t.Fatal(err)
		}
		mutate(meta)
		bad := withFooter(t, f.Data, meta)
		if _, err := NewReader(bad, AllOptimizations(nil, nil)); err == nil || !strings.HasPrefix(err.Error(), "parquet: ") {
			t.Errorf("%s: columnar reader opened the file: %v", name, err)
		}
		if _, err := NewLegacyReader(bad, nil); err == nil || !strings.HasPrefix(err.Error(), "parquet: ") {
			t.Errorf("%s: legacy reader opened the file: %v", name, err)
		}
	}
}

// withFooter returns the file's chunk bytes followed by meta as its footer.
func withFooter(t testing.TB, data []byte, meta *FileMeta) *fsys.BytesFile {
	t.Helper()
	footerLen := int(binary.LittleEndian.Uint32(data[len(data)-8:]))
	var buf bytes.Buffer
	fw := &fileWriter{w: &buf, meta: *meta, closed: false}
	if err := fw.write(data[:len(data)-8-footerLen]); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return &fsys.BytesFile{Data: buf.Bytes()}
}

// heldFile holds every read that starts at or beyond from until release is
// closed.
type heldFile struct {
	*fsys.BytesFile
	from    int64
	release chan struct{}
	held    sync.WaitGroup // the reads being held
}

func (f *heldFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= f.from {
		f.held.Done()
		<-f.release
	}
	return f.BytesFile.ReadAt(p, off)
}

// settledGoroutines waits for goroutines that are past their last statement
// to be gone, then counts.
func settledGoroutines(atMost int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > atMost; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// No goroutine of the reader outlives Close — after a full scan, and after a
// Close in the middle of the file (a LIMIT above the scan) while the reads
// of later row groups are still in flight: Close returns only once they have
// landed.
func TestReaderCloseLeavesNoGoroutine(t *testing.T) {
	f, meta, schema := fiveColumns(t, 16, 4) // 4 row groups
	opts := AllOptimizations([]string{"a", "c", "e"}, nil)
	baseline := runtime.NumGoroutine()

	r, err := NewReaderWithFooter(f, meta, schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(drainReader(t, r.Next)); n != 16 {
		t.Fatalf("%d rows", n)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if n := settledGoroutines(baseline); n > baseline {
		t.Fatalf("%d goroutines after a full scan and Close, %d before", n, baseline)
	}

	// Without a predicate the whole file is read ahead by the first Next: 12
	// ranges, of which the 9 of row groups 1-3 are held. At most
	// fetchConcurrency reads are in flight, so all 9 are reached.
	held := &heldFile{BytesFile: f, from: meta.RowGroups[1].Chunks[0].DataOffset, release: make(chan struct{})}
	held.held.Add(9)
	r, err = NewReaderWithFooter(held, meta, schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Next()
	if err != nil || p.Count() != 4 {
		t.Fatalf("first page: %v, %v", p, err)
	}
	held.held.Wait() // the reads of row groups 1-3 are in flight
	closed := make(chan error, 1)
	go func() { closed <- r.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with 9 reads in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(held.release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if n := settledGoroutines(baseline); n > baseline {
		t.Fatalf("%d goroutines after Close in mid-file, %d before", n, baseline)
	}
	if got := block.MaterializePage(p).Row(3); !reflect.DeepEqual(got, []any{int64(3), int64(9), int64(15)}) {
		t.Errorf("a page handed out before Close reads %v after it", got)
	}
}

// failAt fails the reads that cover an offset.
type failAt struct {
	*fsys.BytesFile
	off int64
}

var errInjectedRead = errors.New("injected read failure")

func (f *failAt) ReadAt(p []byte, off int64) (int, error) {
	if off <= f.off && f.off < off+int64(len(p)) {
		return 0, errInjectedRead
	}
	return f.BytesFile.ReadAt(p, off)
}

// A range that fails fails the row group that needs it, not the ones before
// it: the pages of earlier row groups are served, then Next returns the read
// error, wrapped with what was being read.
func TestFailedRangeFailsItsRowGroup(t *testing.T) {
	f, meta, schema := fiveColumns(t, 12, 4)
	bad := &failAt{BytesFile: f, off: meta.RowGroups[2].Chunks[2].DataOffset}
	r, err := NewReaderWithFooter(bad, meta, schema, AllOptimizations([]string{"a", "c"}, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for rg := 0; rg < 2; rg++ {
		if p, err := r.Next(); err != nil || p.Count() != 4 {
			t.Fatalf("row group %d: %v, %v", rg, p, err)
		}
	}
	if _, err := r.Next(); !errors.Is(err, errInjectedRead) || !strings.Contains(err.Error(), "parquet: reading chunk c") {
		t.Fatalf("row group 2: %v", err)
	}
}
