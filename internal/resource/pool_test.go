package resource

import (
	"errors"
	"testing"
	"time"

	"prestolite/internal/fault"
	"prestolite/internal/obs"
)

func TestPoolHierarchyAccounting(t *testing.T) {
	root := NewPool("root", 1000)
	q1 := root.Child("q1", 500)
	q2 := root.Child("q2", 0)

	if err := q1.TryReserve(300); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	if err := q2.TryReserve(200); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	if got := root.Reserved(); got != 500 {
		t.Fatalf("root reserved = %d, want 500", got)
	}
	q1.Release(100)
	if got, want := q1.Reserved(), int64(200); got != want {
		t.Fatalf("q1 reserved = %d, want %d", got, want)
	}
	if got, want := root.Reserved(), int64(400); got != want {
		t.Fatalf("root reserved = %d, want %d", got, want)
	}
	// Peak is the high-water mark, unaffected by the release.
	if got, want := q1.Peak(), int64(300); got != want {
		t.Fatalf("q1 peak = %d, want %d", got, want)
	}
	if got, want := root.Peak(), int64(500); got != want {
		t.Fatalf("root peak = %d, want %d", got, want)
	}
}

func TestPoolChildCapNamesChild(t *testing.T) {
	root := NewPool("root", 0)
	q := root.Child("q1", 50)
	err := q.TryReserve(60)
	if !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("want ErrPoolExhausted, got %v", err)
	}
	var ex ExhaustedError
	if !errors.As(err, &ex) || ex.Pool != "q1" {
		t.Fatalf("want exhaustion at pool q1, got %+v", err)
	}
	if root.Reserved() != 0 || q.Reserved() != 0 {
		t.Fatalf("failed reserve leaked: root=%d q=%d", root.Reserved(), q.Reserved())
	}
}

func TestPoolTryReserveRollsBackOnAncestorFailure(t *testing.T) {
	root := NewPool("root", 100)
	q := root.Child("q1", 0)
	if err := q.TryReserve(80); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	err := q.TryReserve(50)
	var ex ExhaustedError
	if !errors.As(err, &ex) || ex.Pool != "root" {
		t.Fatalf("want exhaustion at root, got %v", err)
	}
	// The child level must have been rolled back.
	if got, want := q.Reserved(), int64(80); got != want {
		t.Fatalf("q reserved = %d, want %d", got, want)
	}
	if got, want := root.Reserved(), int64(80); got != want {
		t.Fatalf("root reserved = %d, want %d", got, want)
	}
}

func TestPoolCloseReleasesRemainder(t *testing.T) {
	root := NewPool("root", 1000)
	q := root.Child("q1", 0)
	if err := q.TryReserve(400); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	q.Close()
	if got := root.Reserved(); got != 0 {
		t.Fatalf("root reserved after child close = %d, want 0", got)
	}
}

func TestReserveWithoutKillerFailsTyped(t *testing.T) {
	root := NewPool("root", 100)
	q := root.Child("q1", 0)
	if err := q.Reserve(80); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	if err := q.Reserve(50); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("want ErrPoolExhausted, got %v", err)
	}
}

func TestOOMKillerKillsLargestQuery(t *testing.T) {
	reg := obs.NewRegistry()
	kills := reg.Counter("oom_kills")
	root := NewPool("root", 1000)
	root.EnableOOMKiller(kills)
	big := root.Child("big", 0)
	small := root.Child("small", 0)
	if err := big.Reserve(600); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	if err := small.Reserve(300); err != nil {
		t.Fatalf("reserve: %v", err)
	}

	// Simulate the big query noticing it was killed and unwinding, as a
	// failing operator's Close would.
	go func() {
		for big.KilledErr() == nil {
			time.Sleep(time.Millisecond)
		}
		big.Close()
	}()

	// small needs 300 more: the root is full, the killer must pick big (the
	// largest reservation) and the blocked reservation then goes through.
	if err := small.Reserve(300); err != nil {
		t.Fatalf("reserve after OOM kill: %v", err)
	}
	if err := big.KilledErr(); !errors.Is(err, ErrQueryKilledOOM) {
		t.Fatalf("big should be OOM-killed, got %v", err)
	}
	if got := kills.Load(); got != 1 {
		t.Fatalf("oom_kills = %d, want 1", got)
	}
	// A killed query's further reservations fail with the kill error.
	if err := big.TryReserve(1); !errors.Is(err, ErrQueryKilledOOM) {
		t.Fatalf("killed pool accepted a reservation: %v", err)
	}
}

func TestOOMKillerKillsRequesterWhenLargest(t *testing.T) {
	root := NewPool("root", 1000)
	root.EnableOOMKiller(nil)
	hog := root.Child("hog", 0)
	other := root.Child("other", 0)
	if err := hog.Reserve(900); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	if err := other.Reserve(50); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	// hog itself asks for more than the root can give: it is the largest
	// reservation, so the killer turns on it immediately — no waiting.
	if err := hog.Reserve(200); !errors.Is(err, ErrQueryKilledOOM) {
		t.Fatalf("want ErrQueryKilledOOM, got %v", err)
	}
	if other.KilledErr() != nil {
		t.Fatalf("innocent query was killed: %v", other.KilledErr())
	}
}

func TestAddSpilledPropagates(t *testing.T) {
	root := NewPool("root", 0)
	q := root.Child("q1", 0)
	q.AddSpilled(123)
	if q.Spilled() != 123 || root.Spilled() != 123 {
		t.Fatalf("spilled: q=%d root=%d, want 123/123", q.Spilled(), root.Spilled())
	}
}

// stuckClock never lets time pass: Sleep and After never return, so only a
// release can end a wait on it.
type stuckClock struct{}

func (stuckClock) Now() time.Time                              { return time.Time{} }
func (stuckClock) Sleep(time.Duration)                         { select {} }
func (stuckClock) After(time.Duration) <-chan time.Time        { return nil }
func (stuckClock) AfterFunc(time.Duration, func()) func() bool { return func() bool { return true } }

// cascade builds a 1,000-byte root with the killer on under clock, and three
// queries holding 500, 300 and 100 bytes; the largest unwinds 20 ms after it
// sees its kill, and its Close time is sent on the returned channel.
func cascade(t *testing.T, clock fault.Clock) (root, large, mid, small *Pool, kills *obs.Counter, closed <-chan time.Time) {
	t.Helper()
	kills = obs.NewRegistry().Counter("oom_kills")
	root = NewPool("root", 1000)
	root.EnableOOMKiller(kills)
	root.SetClock(clock)
	large, mid, small = root.Child("large", 0), root.Child("mid", 0), root.Child("small", 0)
	for _, h := range []struct {
		q *Pool
		n int64
	}{{large, 500}, {mid, 300}, {small, 100}} {
		if err := h.q.TryReserve(h.n); err != nil {
			t.Fatal(err)
		}
	}
	c := make(chan time.Time, 1)
	go func() {
		for large.KilledErr() == nil {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		large.Close()
		c <- time.Now()
	}()
	return root, large, mid, small, kills, c
}

// TestOOMKillerKillsOneVictimAtATime: the smallest query asks for 300 bytes
// of a full root. Killing the largest frees 500, so the killer must wait for
// that victim to unwind rather than kill the next largest — and then the
// requester itself.
func TestOOMKillerKillsOneVictimAtATime(t *testing.T) {
	_, large, mid, small, kills, _ := cascade(t, nil)
	if err := small.Reserve(300); err != nil {
		t.Fatalf("reserve after one kill: %v", err)
	}
	if got := kills.Load(); got != 1 {
		t.Errorf("oom_kills = %d, want 1", got)
	}
	if !errors.Is(large.KilledErr(), ErrQueryKilledOOM) {
		t.Errorf("the largest query was not killed: %v", large.KilledErr())
	}
	if mid.KilledErr() != nil || small.KilledErr() != nil {
		t.Errorf("a second victim: mid %v, small %v", mid.KilledErr(), small.KilledErr())
	}
}

// TestReserveWakesOnRelease: the same cascade on a clock that never lets
// time pass. The waiting reservation must be woken by the victim's Close
// itself, not by a timer.
func TestReserveWakesOnRelease(t *testing.T) {
	_, _, _, small, kills, closed := cascade(t, stuckClock{})
	done := make(chan error, 1)
	go func() { done <- small.Reserve(300) }()
	var at time.Time
	select {
	case at = <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the largest query was never killed")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("reserve: %v", err)
		}
		if d := time.Since(at); d > time.Second {
			t.Errorf("returned %v after the victim's Close", d)
		}
	case <-time.After(time.Second):
		t.Fatal("Reserve still waiting 1 s after the victim's Close")
	}
	if got := kills.Load(); got != 1 {
		t.Errorf("oom_kills = %d, want 1", got)
	}
}

// TestReserveAsksYieldersBeforeKilling: query a's yielder holds 600 bytes
// of a 1,000-byte root and gives them back when asked. Query b's hard
// reservation of 500 must be served by that spill, across queries, with no
// kill.
func TestReserveAsksYieldersBeforeKilling(t *testing.T) {
	kills := obs.NewRegistry().Counter("oom_kills")
	root := NewPool("root", 1000)
	root.EnableOOMKiller(kills)
	a, b := root.Child("a", 0), root.Child("b", 0)
	sorter := a.Yielder("sort")
	if err := sorter.TryReserve(600); err != nil {
		t.Fatal(err)
	}
	go func() {
		for !sorter.Asked() {
			time.Sleep(time.Millisecond)
		}
		sorter.Release(600)
	}()
	if err := b.Reserve(500); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	if got := kills.Load(); got != 0 {
		t.Errorf("oom_kills = %d, want 0: a yielder was there to spill", got)
	}
	if a.KilledErr() != nil {
		t.Errorf("query a was killed: %v", a.KilledErr())
	}
}
