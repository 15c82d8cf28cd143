package cluster

import (
	"testing"
	"time"

	"prestolite/internal/fault"
)

// TestChaosAffinityCachedWorkerDeath is the tentpole's degradation proof:
// affinity scheduling (on by default) concentrates each split's repeats on
// one worker, whose chunk and fragment-result caches go hot — then that
// worker dies mid-fetch. The soft-affinity contract is that the caches are
// an optimization, never a correctness dependency: the reschedule machinery
// re-executes the dead worker's splits cold on survivors and every query
// still returns the exact clean-cluster rows, with the recovery visible as
// task_retries.
func TestChaosAffinityCachedWorkerDeath(t *testing.T) {
	want := chaosBaseline(t)
	for _, seed := range ChaosSeeds(t) {
		t.Logf("chaos seed %d (re-run with CHAOS_SEED=%d)", seed, seed)
		inj := fault.NewInjector(seed)
		catalogs := chaosCatalogs(t, inj)
		coord := NewCoordinatorWithConfig(catalogs, ChaosConfig(inj))
		var workers []*Worker
		for i := 0; i < 3; i++ {
			w := NewWorker(catalogs)
			w.GracePeriod = 20 * time.Millisecond
			w.EnableFragmentResultCache = true
			if err := w.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { w.Close() })
			coord.AddWorker(w.Addr())
			workers = append(workers, w)
		}

		// Warm pass: no faults. Affinity places splits, workers fill their
		// fragment caches (and the shared hive chunk cache fills underneath).
		Watchdog(t, 60*time.Second, func() {
			for i, q := range chaosQueries {
				if got := mustRows(t, coord, q); got != want[i] {
					t.Errorf("seed %d query %d: warm pass diverged\ngot  %s\nwant %s", seed, i, got, want[i])
				}
			}
		})
		if placed := counter(coord, "splits_affinity_placed"); placed == 0 {
			t.Fatalf("seed %d: affinity placed no splits — the default is off?", seed)
		}

		// Kill the cached worker: it still accepts tasks (affinity keeps
		// hashing splits onto it) but every answer carrying task output is
		// lost — the deterministic stand-in for a node dying with hot caches.
		victim := busiestWorker(workers)
		inj.FaultHTTP(fault.HTTPRule{Target: victim.Addr(), Path: "/v1/task", LoseProb: 1})
		survivorHits := func() int64 {
			n := int64(0)
			for _, w := range workers {
				if w != victim {
					n += w.FragmentCacheHits.Load()
				}
			}
			return n
		}

		retriesBefore := counter(coord, "task_retries")
		hitsBefore := survivorHits()
		Watchdog(t, 60*time.Second, func() {
			for i, q := range chaosQueries {
				if got := mustRows(t, coord, q); got != want[i] {
					t.Errorf("seed %d query %d: rows diverged after cached-worker death\ngot  %s\nwant %s", seed, i, got, want[i])
				}
			}
		})
		if n := inj.Counters.Lost.Load(); n < 1 {
			t.Errorf("seed %d: no answer was lost — the victim was never faulted", seed)
		}
		if n := counter(coord, "task_retries") - retriesBefore; n < 1 {
			t.Errorf("seed %d: task_retries moved by %d, want >= 1 (dead worker's splits were never rescheduled)", seed, n)
		}
		// The survivors' caches still pay off: their own affinity-pinned
		// splits repeat as fragment-cache hits even while the victim's splits
		// re-execute cold.
		if n := survivorHits() - hitsBefore; n < 1 {
			t.Errorf("seed %d: surviving workers served %d fragment-cache hits, want >= 1", seed, n)
		}
	}
}
