package resource

import (
	"errors"
	"testing"
	"time"

	"prestolite/internal/fault"
)

func TestAdmissionZeroConcurrencyRejects(t *testing.T) {
	g := NewGroup(GroupConfig{Name: "drained", MaxConcurrency: 0, MaxQueued: 10}, nil)
	if _, err := g.Acquire(nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if running(g) != 0 || g.Depth() != 0 {
		t.Fatalf("rejected acquire mutated state: running=%d depth=%d", running(g), g.Depth())
	}
}

func TestAdmissionFIFOAndQueueFull(t *testing.T) {
	g := NewGroup(GroupConfig{Name: "adhoc", MaxConcurrency: 1, MaxQueued: 1}, nil)
	rel1, err := g.Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}

	got2 := make(chan error, 1)
	go func() {
		rel2, err := g.Acquire(nil)
		if err == nil {
			defer rel2()
		}
		got2 <- err
	}()
	waitDepth(t, g, 1)

	// Queue is at MaxQueued: the next submission is rejected immediately.
	if _, err := g.Acquire(nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}

	rel1()
	if err := <-got2; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	if g.Depth() != 0 {
		t.Fatalf("depth = %d after grant", g.Depth())
	}
}

func TestAdmissionCancelWhileQueued(t *testing.T) {
	g := NewGroup(GroupConfig{Name: "adhoc", MaxConcurrency: 1, MaxQueued: 4}, nil)
	rel1, err := g.Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}

	cancel := make(chan struct{})
	got := make(chan error, 1)
	go func() {
		_, err := g.Acquire(cancel)
		got <- err
	}()
	waitDepth(t, g, 1)
	close(cancel)
	if err := <-got; err == nil {
		t.Fatal("cancelled acquire returned nil error")
	}
	if g.Depth() != 0 {
		t.Fatalf("depth = %d after cancel", g.Depth())
	}

	// The queue stays consistent: the slot still works end to end.
	rel1()
	rel2, err := g.Acquire(nil)
	if err != nil {
		t.Fatalf("acquire after cancel: %v", err)
	}
	rel2()
	if running(g) != 0 {
		t.Fatalf("running = %d after release", running(g))
	}
}

func TestAdmissionQueuedTimeBounded(t *testing.T) {
	clock := fault.NewManualClock(time.Unix(0, 0))
	g := NewGroup(GroupConfig{Name: "adhoc", MaxConcurrency: 1, MaxQueued: 4, MaxQueuedTime: time.Minute}, clock)
	rel1, err := g.Acquire(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The manual clock fires timers instantly, so the queued acquire times
	// out deterministically instead of after a wall-clock minute.
	if _, err := g.Acquire(nil); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("want ErrQueueTimeout, got %v", err)
	}
	if g.Depth() != 0 {
		t.Fatalf("depth = %d after timeout", g.Depth())
	}
	rel1()
	rel2, err := g.Acquire(nil)
	if err != nil {
		t.Fatalf("acquire after timeout: %v", err)
	}
	rel2()
}

func waitDepth(t *testing.T, g *Group, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for g.Depth() != want {
		if time.Now().After(deadline) {
			t.Fatalf("depth = %d, want %d", g.Depth(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// running reads the number of queries holding slots.
func running(g *Group) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.running
}
