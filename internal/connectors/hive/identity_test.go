package hive

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"prestolite/internal/block"
	"prestolite/internal/core"
	"prestolite/internal/frame"
	"prestolite/internal/fsys"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/s3"
	"prestolite/internal/types"
)

// storages are the filesystems whose stamps the caches key by: the simulated
// HDFS NameNode and PrestoS3FileSystem over the simulated object store.
var storages = map[string]func() fsys.FileSystem{
	"hdfs": func() fsys.FileSystem { return hdfs.New(hdfs.Config{}) },
	"s3":   func() fsys.FileSystem { return s3.NewFileSystem(s3.NewStore(s3.Config{}), s3.DefaultConfig()) },
}

var fareCols = []metastore.Column{{Name: "fare", Type: types.Double}}

func farePage(fares ...float64) *block.Page {
	pb := block.NewPageBuilder([]*types.Type{types.Double})
	for _, f := range fares {
		pb.AppendRow([]any{f})
	}
	return pb.Build()
}

// fareTable registers rt.fares with one partition "today" holding one file of
// fares and returns an engine over it with every hive cache on.
func fareTable(t *testing.T, fs fsys.FileSystem, sealed bool, fares ...float64) (*core.Engine, *Loader, string) {
	t.Helper()
	ms := metastore.New()
	loader := &Loader{MS: ms, FS: fs}
	if err := loader.CreatePartitionedTable("rt", "fares", fareCols, "datestr",
		map[string][]*block.Page{"today": {farePage(fares...)}}, map[string]bool{"today": sealed}); err != nil {
		t.Fatal(err)
	}
	e := core.New()
	e.Register("hive", New("hive", ms, fs, Options{}))
	return e, loader, "/warehouse/rt/fares/datestr=today/part-00000"
}

func queryFloat(t *testing.T, e *core.Engine, q string) float64 {
	t.Helper()
	res, err := e.Query(core.DefaultSession("hive", "rt"), q)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Rows()[0][0].(float64)
	if !ok {
		t.Fatalf("%s = %v", q, res.Rows()[0][0])
	}
	return v
}

func fileSize(t *testing.T, fs fsys.FileSystem, path string) int64 {
	t.Helper()
	f, err := fs.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return f.Size()
}

// TestRewrittenFileInOpenPartitionIsReadFresh rewrites the one file of an
// open partition at the same path behind the connector's back — a raw
// filesystem write, as another process's loader makes it — once at the same
// size and once at a new size. Every cache is warm with the old bytes; the
// next query must answer from the new ones.
func TestRewrittenFileInOpenPartitionIsReadFresh(t *testing.T) {
	for name, newFS := range storages {
		t.Run(name, func(t *testing.T) {
			fs := newFS()
			e, loader, path := fareTable(t, fs, false, 5.0, 10.5, 7.5, 14.5)
			const q = "SELECT sum(fare) FROM fares"
			for i := 0; i < 2; i++ { // the second run is served by the caches
				if got := queryFloat(t, e, q); got != 37.5 {
					t.Fatalf("sum = %v, want 37.5", got)
				}
			}
			size := fileSize(t, fs, path)

			if err := loader.writeOne(path, fareCols, []*block.Page{farePage(5.0, 12.5, 14.0, 14.5)}); err != nil {
				t.Fatal(err)
			}
			if got := fileSize(t, fs, path); got != size {
				t.Fatalf("fixture: the same-size rewrite is %d bytes, was %d", got, size)
			}
			if got := queryFloat(t, e, q); got != 46 {
				t.Errorf("after a same-size rewrite sum = %v, want 46", got)
			}

			if err := loader.writeOne(path, fareCols, []*block.Page{farePage(1, 2, 3, 4, 5, 6)}); err != nil {
				t.Fatal(err)
			}
			if got := fileSize(t, fs, path); got == size {
				t.Fatalf("fixture: the resized rewrite kept %d bytes", got)
			}
			if got := queryFloat(t, e, q); got != 21 {
				t.Errorf("after a resized rewrite sum = %v, want 21", got)
			}
		})
	}
}

// TestRewrittenSealedPartitionReRegisteredIsReadFresh is the sealed case: a
// loader rewrites the partition's files and registers it again, which gives
// it a new metastore version and so a new listing.
func TestRewrittenSealedPartitionReRegisteredIsReadFresh(t *testing.T) {
	for name, newFS := range storages {
		t.Run(name, func(t *testing.T) {
			e, loader, _ := fareTable(t, newFS(), true, 5.0, 10.5, 7.5, 14.5)
			const q = "SELECT sum(fare) FROM fares"
			for i := 0; i < 2; i++ {
				if got := queryFloat(t, e, q); got != 37.5 {
					t.Fatalf("sum = %v, want 37.5", got)
				}
			}
			for _, c := range []struct {
				fares []float64
				want  float64
			}{{[]float64{5.0, 12.5, 14.0, 14.5}, 46}, {[]float64{1, 2, 3, 4, 5, 6}, 21}} {
				if err := loader.AddPartition("rt", "fares", "datestr", "today", []*block.Page{farePage(c.fares...)}, true); err != nil {
					t.Fatal(err)
				}
				if got := queryFloat(t, e, q); got != c.want {
					t.Errorf("after re-registering %v sum = %v, want %v", c.fares, got, c.want)
				}
			}
		})
	}
}

// TestRewrittenOpenPartitionAnswersOneStateUnderConcurrentWrites runs
// queries while a loader appends files to an open partition, rewrites one of
// them in place at a new size and adds sealed partitions. Every answer must
// be the (count, sum) of one state the table passed through; a query whose
// file changed size under it may fail, and only with the changed-file error.
// Each file's fares sum to a distinct power of two, so no mix of two states
// can pass for a third. The loader takes its next step only once every query
// that started before its last step has finished, so one query sees at most
// one step.
func TestRewrittenOpenPartitionAnswersOneStateUnderConcurrentWrites(t *testing.T) {
	fs := hdfs.New(hdfs.Config{})
	e, loader, _ := fareTable(t, fs, false, 1)
	type state struct {
		count int64
		sum   float64
	}
	cur := state{1, 1}
	states := map[state]bool{cur: true}
	g := newStepGate()

	done := make(chan struct{})
	errs := make(chan error, 3)
	var answered, refused [3]int
	for w := 0; w < 3; w++ {
		w := w
		go func() {
			for {
				select {
				case <-done:
					errs <- nil
					return
				default:
				}
				epoch := g.enter()
				res, err := e.Query(core.DefaultSession("hive", "rt"), "SELECT count(*), sum(fare) FROM fares")
				g.leave(epoch)
				if err != nil {
					if !isFileChanged(err) {
						errs <- err
						return
					}
					refused[w]++
					continue
				}
				row := res.Rows()[0]
				got := state{row[0].(int64), row[1].(float64)}
				g.mu.Lock()
				ok := states[got]
				g.mu.Unlock()
				if !ok {
					errs <- fmt.Errorf("answer %+v is no state the table passed through", got)
					return
				}
				answered[w]++
			}
		}()
	}

	bit := 1.0
	for step := 0; step < 24; step++ {
		bit *= 2
		next := state{cur.count + 1, cur.sum + bit}
		if step%3 == 1 {
			next.sum -= bit / 2 // the file rewritten held bit/2
		}
		// The state is acceptable before any query can see it.
		g.mu.Lock()
		states[next] = true
		g.mu.Unlock()
		var err error
		switch step % 3 {
		case 0: // a micro-batch lands in the open partition
			err = loader.writeOne(fmt.Sprintf("/warehouse/rt/fares/datestr=today/part-%05d", step+1), fareCols, []*block.Page{farePage(bit)})
		case 1: // the batch that just landed is rewritten in place, one row longer
			err = loader.writeOne(fmt.Sprintf("/warehouse/rt/fares/datestr=today/part-%05d", step), fareCols, []*block.Page{farePage(bit/2, bit/2)})
		default: // a sealed partition is registered
			err = loader.AddPartition("rt", "fares", "datestr", fmt.Sprintf("day-%02d", step), []*block.Page{farePage(bit)}, true)
		}
		if err != nil {
			t.Fatal(err)
		}
		cur = next
		g.step()
	}
	close(done)
	for w := 0; w < 3; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	t.Logf("answered %v, refused (a file changed under the query) %v", answered, refused)
	if got := queryFloat(t, e, "SELECT sum(fare) FROM fares"); got != cur.sum {
		t.Errorf("final sum = %v, want %v", got, cur.sum)
	}
}

func isFileChanged(err error) bool { return errors.Is(err, ErrFileChanged) }

// stepGate lets a writer take its next step only once every reader that
// entered before its last step has left, so no reader overlaps two steps.
type stepGate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	epoch    int         // steps taken
	inflight map[int]int // epoch a reader entered at -> readers in flight
}

func newStepGate() *stepGate {
	g := &stepGate{inflight: map[int]int{}}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *stepGate) enter() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inflight[g.epoch]++
	return g.epoch
}

func (g *stepGate) leave(epoch int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inflight[epoch]--; g.inflight[epoch] == 0 {
		delete(g.inflight, epoch)
	}
	g.cond.Broadcast()
}

// step records a step taken and waits until every reader in flight entered
// after it.
func (g *stepGate) step() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.epoch++
	for {
		stale := false
		for e := range g.inflight {
			stale = stale || e < g.epoch
		}
		if !stale {
			return
		}
		g.cond.Wait()
	}
}

// TestRewrittenBetweenSplitsAndOpenFailsTheSplit rewrites a file at a new
// size after Splits listed it and before the worker opens it. The split fails
// with ErrFileChanged: whether its footer is read cold, at CreatePageSource,
// or was cached for the listed file by a query that read only the footer —
// then the first chunk read opens the file, and the cached footer is never
// read against the new bytes.
func TestRewrittenBetweenSplitsAndOpenFailsTheSplit(t *testing.T) {
	for _, footerCached := range []bool{false, true} {
		for name, newFS := range storages {
			t.Run(fmt.Sprintf("%s/footerCached=%v", name, footerCached), func(t *testing.T) {
				fs := newFS()
				ms := metastore.New()
				loader := &Loader{MS: ms, FS: fs}
				if err := loader.CreatePartitionedTable("rt", "fares", fareCols, "datestr",
					map[string][]*block.Page{"today": {farePage(5.0, 10.5, 7.5, 14.5)}}, nil); err != nil {
					t.Fatal(err)
				}
				conn := New("hive", ms, fs, Options{})
				if footerCached {
					e := core.New()
					e.Register("hive", conn)
					// count(*) is answered from the footer: no chunk is read.
					if _, err := e.Query(core.DefaultSession("hive", "rt"), "SELECT count(*) FROM fares"); err != nil {
						t.Fatal(err)
					}
				}
				_, handle, err := conn.Metadata().GetTable("rt", "fares")
				if err != nil {
					t.Fatal(err)
				}
				splits, err := conn.SplitManager().Splits(handle)
				if err != nil || len(splits) != 1 {
					t.Fatalf("splits = %v, %v", splits, err)
				}
				if err := loader.writeOne("/warehouse/rt/fares/datestr=today/part-00000", fareCols, []*block.Page{farePage(1, 2, 3, 4, 5, 6)}); err != nil {
					t.Fatal(err)
				}
				src, err := conn.RecordSetProvider().CreatePageSource(handle, splits[0], []int{0})
				if footerCached && err != nil {
					t.Fatalf("the cached footer was not used: %v", err)
				}
				for err == nil {
					_, err = src.Next()
				}
				if !errors.Is(err, ErrFileChanged) {
					t.Fatalf("err = %v, want ErrFileChanged", err)
				}
				if src != nil {
					src.Close()
				}
			})
		}
	}
}

// TestDecodeSplitRefusesNegativeSize: a split claiming a negative size is
// refused where it is read (TestPlanWireRoundTrip carries a valid one).
func TestDecodeSplitRefusesNegativeSize(t *testing.T) {
	conn := New("hive", metastore.New(), hdfs.New(hdfs.Config{}), Options{})
	split := &Split{Handle: &TableHandle{Schema: "rt", Table: "fares", Limit: -1}, Path: "/f", Size: -1, Stamp: 42}
	r := frame.NewReader(split.AppendWire(nil))
	conn.DecodeSplit(r)
	if err := r.Close(); err == nil {
		t.Error("a negative size was accepted")
	}
}
