package cluster

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"prestolite/internal/connector"
	"prestolite/internal/frame"
)

// fakeSplit is a named split for exercising the assignment logic and the
// fragment-cache key directly.
type fakeSplit string

func (s fakeSplit) Description() string { return string(s) }

func (s fakeSplit) AppendWire(dst []byte) []byte { return frame.AppendString(dst, string(s)) }

func fakeWorkers(n int) []*workerClient {
	out := make([]*workerClient, n)
	for i := range out {
		out[i] = &workerClient{addr: fmt.Sprintf("10.0.0.%d:8080", i+1)}
	}
	return out
}

func fakeSplits(n int) []connector.Split {
	out := make([]connector.Split, n)
	for i := range out {
		out[i] = fakeSplit(fmt.Sprintf("/warehouse/dash/events/part-%05d.parquet", i))
	}
	return out
}

// TestAffinityFirstChoicePlacement: soft affinity is only worth its load-cap
// complexity if the cap rarely interferes — at dashboard scale the vast
// majority of splits must land on their rendezvous-hashed first choice, or
// the worker-local caches churn on every worker-set change.
func TestAffinityFirstChoicePlacement(t *testing.T) {
	splits := fakeSplits(200)
	workers := fakeWorkers(8)
	assignment, placed, overflow := assignSplits(splits, workers)

	total := 0
	for _, set := range assignment {
		total += len(set)
	}
	if total != len(splits) {
		t.Fatalf("assigned %d of %d splits", total, len(splits))
	}
	if placed+overflow != len(splits) {
		t.Fatalf("placed %d + overflow %d != %d splits", placed, overflow, len(splits))
	}

	// Count splits that landed on their top-ranked worker independently of
	// the counters, so the counters themselves are verified too.
	firstChoice := 0
	for wi, set := range assignment {
		for _, s := range set {
			if rankWorkers(s.Description(), workers)[0] == wi {
				firstChoice++
			}
		}
	}
	if firstChoice != placed {
		t.Errorf("placed counter = %d but %d splits sit on their first choice", placed, firstChoice)
	}
	if pct := 100 * firstChoice / len(splits); pct < 90 {
		t.Errorf("only %d%% of splits on their hashed worker, want >= 90%%", pct)
	}

	// The load cap holds: no worker exceeds fair share + 1.
	capPer := loadCap(len(splits), len(workers))
	for wi, set := range assignment {
		if len(set) > capPer {
			t.Errorf("worker %d holds %d splits, cap is %d", wi, len(set), capPer)
		}
	}
}

// TestAffinityIsDeterministic: the same splits over the same worker set
// always produce the same assignment — there is no hidden state, so a
// coordinator restart (or a second coordinator) schedules identically.
func TestAffinityIsDeterministic(t *testing.T) {
	splits := fakeSplits(64)
	workers := fakeWorkers(5)
	a1, _, _ := assignSplits(splits, workers)
	a2, _, _ := assignSplits(splits, workers)
	if fmt.Sprint(a1) != fmt.Sprint(a2) {
		t.Error("repeated assignment diverged")
	}
}

// TestAffinityMinimalDisruption is the rendezvous-hashing property the tier-1
// caches depend on: removing one worker must only move the splits that lived
// on it — every other split keeps its worker and therefore its warm cache.
func TestAffinityMinimalDisruption(t *testing.T) {
	splits := fakeSplits(120)
	workers := fakeWorkers(6)
	before, _, _ := assignSplits(splits, workers)

	// Drop worker 3 and reassign.
	survivors := append(append([]*workerClient{}, workers[:3]...), workers[4:]...)
	after, _, _ := assignSplits(splits, survivors)

	locate := func(assignment [][]connector.Split, ws []*workerClient, desc string) string {
		for wi, set := range assignment {
			for _, s := range set {
				if s.Description() == desc {
					return ws[wi].addr
				}
			}
		}
		return ""
	}
	moved := 0
	for _, s := range splits {
		b, a := locate(before, workers, s.Description()), locate(after, survivors, s.Description())
		if b != workers[3].addr && b != a {
			moved++
		}
	}
	// The load cap shifts slightly when the fleet shrinks, so a handful of
	// overflow splits may migrate; wholesale reshuffling (what a modulo
	// scheduler does) moves most of them.
	if moved > len(splits)/10 {
		t.Errorf("%d of %d surviving splits moved after one worker loss, want <= 10%%", moved, len(splits))
	}
}

// TestAffinitySchedulingEndToEnd: with the default session, repeated queries
// place >= 90% of their splits on hashed workers (visible through the
// coordinator counters).
func TestAffinitySchedulingEndToEnd(t *testing.T) {
	coord, _ := newCluster(t, newCatalogs(t), 3)
	s := session()
	for i := 0; i < 4; i++ {
		if _, err := coord.Query(s, "SELECT count(*) FROM trips"); err != nil {
			t.Fatal(err)
		}
	}
	snap := coord.Obs().Snapshot()
	placed, overflow := snap.Counters["splits_affinity_placed"], snap.Counters["splits_affinity_overflow"]
	if placed+overflow != 4*8 {
		t.Fatalf("affinity counters cover %d splits, want 32 (4 queries x 8 files)", placed+overflow)
	}
	// 8 splits over 3 workers is the worst case for the cap (fair share +1
	// = 4, so one hot worker sheds a split per query); the >= 90% contract
	// at dashboard scale is TestAffinityFirstChoicePlacement's assertion.
	if 100*placed/(placed+overflow) < 75 {
		t.Errorf("placed=%d overflow=%d: fewer than 75%% of splits on their hashed worker", placed, overflow)
	}
}

// TestAffinityStickyAcrossQueries: the end-to-end stickiness contract — the
// per-worker split distribution of a repeated query is identical run over
// run (same splits, same workers, same hash), which is what turns repeats
// into chunk- and fragment-cache hits.
func TestAffinityStickyAcrossQueries(t *testing.T) {
	coord, workers := newCluster(t, newCatalogs(t), 3)
	s := session()
	s.Properties["task_concurrency"] = "1"

	distribution := func() string {
		var sb strings.Builder
		for _, w := range workers {
			hits := w.Obs.Snapshot().Counters["tasks_started"]
			fmt.Fprintf(&sb, "%s=%d;", w.Addr(), hits)
		}
		return sb.String()
	}
	if _, err := coord.Query(s, "SELECT count(*) FROM trips"); err != nil {
		t.Fatal(err)
	}
	base := distribution()
	deltas := map[string]bool{}
	prev := base
	for i := 0; i < 3; i++ {
		if _, err := coord.Query(s, "SELECT count(*) FROM trips"); err != nil {
			t.Fatal(err)
		}
		cur := distribution()
		deltas[diffTasks(t, prev, cur)] = true
		prev = cur
	}
	if len(deltas) != 1 {
		t.Errorf("per-worker task deltas varied across identical queries: %v", deltas)
	}
}

// diffTasks renders the per-worker delta between two tasks_started snapshots.
func diffTasks(t *testing.T, before, after string) string {
	t.Helper()
	parse := func(s string) map[string]int64 {
		out := map[string]int64{}
		for _, kv := range strings.Split(strings.TrimSuffix(s, ";"), ";") {
			parts := strings.Split(kv, "=")
			if len(parts) != 2 {
				t.Fatalf("bad snapshot %q", s)
			}
			var n int64
			fmt.Sscanf(parts[1], "%d", &n)
			out[parts[0]] = n
		}
		return out
	}
	b, a := parse(before), parse(after)
	addrs := make([]string, 0, len(a))
	for addr := range a {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	var sb strings.Builder
	for _, addr := range addrs {
		fmt.Fprintf(&sb, "%s+%d;", addr, a[addr]-b[addr])
	}
	return sb.String()
}
