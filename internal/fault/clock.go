package fault

import (
	"sync"
	"time"
)

// Clock abstracts time so retry/backoff/hedging code can run against real
// wall time in production and a controllable clock in tests. It is threaded
// through the coordinator, gateway and PrestoS3FileSystem backoff loops.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
	// After behaves like time.After. Implementations must deliver exactly one
	// value on the returned channel.
	After(d time.Duration) <-chan time.Time
}

// RealClock is the production clock: plain wall time.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (RealClock) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (RealClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// ManualClock is a deterministic test clock where time passes instantly:
// Sleep and After advance the clock and return immediately, recording how
// much virtual time was requested. That makes backoff schedules assertable
// (and fast) without real sleeping.
//
//lint:ignore reachability the fake clock tests substitute for RealClock; no binary runs on virtual time
type ManualClock struct {
	mu    sync.Mutex
	now   time.Time
	slept time.Duration
}

// NewManualClock starts a manual clock at start.
//
//lint:ignore reachability constructor of the test clock
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{now: start}
}

// Now implements Clock.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Sleep advances the clock by d instantly and records it.
func (c *ManualClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.slept += d
	c.mu.Unlock()
}

// After advances the clock by d instantly and returns an already-fired
// channel, so select loops (e.g. hedged fetches) take the timeout branch
// deterministically.
func (c *ManualClock) After(d time.Duration) <-chan time.Time {
	c.Sleep(d)
	ch := make(chan time.Time, 1)
	ch <- c.Now()
	return ch
}

// Advance moves the clock forward without recording a sleep.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// Slept reports the total virtual time requested via Sleep/After.
func (c *ManualClock) Slept() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slept
}
