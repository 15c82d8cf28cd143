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
	// AfterFunc behaves like time.AfterFunc: f runs in its own goroutine once
	// d has passed, unless stop, called first, reports that it prevented it.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

// RealClock is the production clock: plain wall time.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (RealClock) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (RealClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// AfterFunc implements Clock.
func (RealClock) AfterFunc(d time.Duration, f func()) func() bool { return time.AfterFunc(d, f).Stop }

// ManualClock is a deterministic test clock where time passes instantly:
// Sleep and After advance the clock and return immediately, recording how
// much virtual time was requested. That makes backoff schedules assertable
// (and fast) without real sleeping. A timer (AfterFunc) fires when the clock
// is moved to its time or past it, by Sleep, After or Advance.
//
//lint:ignore reachability the fake clock tests substitute for RealClock; no binary runs on virtual time
type ManualClock struct {
	mu     sync.Mutex
	now    time.Time
	slept  time.Duration
	timers []*manualTimer
}

// manualTimer is one pending AfterFunc of a ManualClock.
type manualTimer struct {
	at time.Time
	f  func()
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
	if d > 0 {
		c.move(d, true)
	}
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
func (c *ManualClock) Advance(d time.Duration) { c.move(d, false) }

// move moves the clock forward by d and starts every timer that falls due.
func (c *ManualClock) move(d time.Duration, sleep bool) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	if sleep {
		c.slept += d
	}
	var due []*manualTimer
	pending := c.timers[:0]
	for _, t := range c.timers {
		if t.at.After(c.now) {
			pending = append(pending, t)
		} else {
			due = append(due, t)
		}
	}
	clear(c.timers[len(pending):])
	c.timers = pending
	c.mu.Unlock()
	for _, t := range due {
		go t.f()
	}
}

// AfterFunc implements Clock: f runs once the clock has been moved d past
// now.
func (c *ManualClock) AfterFunc(d time.Duration, f func()) func() bool {
	t := &manualTimer{f: f}
	c.mu.Lock()
	t.at = c.now.Add(d)
	c.timers = append(c.timers, t)
	c.mu.Unlock()
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i, p := range c.timers {
			if p == t {
				c.timers = append(c.timers[:i], c.timers[i+1:]...)
				return true
			}
		}
		return false
	}
}

// Slept reports the total virtual time requested via Sleep/After.
func (c *ManualClock) Slept() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slept
}
