// Package fault is the deterministic fault-injection layer: a seeded
// Injector drives an http.RoundTripper (Transport) that can drop, delay,
// corrupt or black-hole requests, or lose their responses, per target/per path, and a fsys.FileSystem
// wrapper (FS) that injects errors and latency into storage reads. Both draw
// every probability decision from one seeded RNG, so a chaos run is
// reproducible from its logged seed: the same seed yields the same fault
// sequence (modulo goroutine interleaving, which decides which request
// receives which draw — the chaos suite therefore asserts invariants, not
// schedules). The package also provides the controllable Clock threaded
// through the cluster and S3 retry/backoff paths.
package fault

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// InjectedError marks a fault produced by the injector, distinguishable from
// organic failures via errors.As.
type InjectedError struct {
	Op     string // "drop", "black-hole", "fs-read", "fs-open", ...
	Target string // host or file path the fault hit
}

// Error implements error.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("fault: injected %s on %s", e.Op, e.Target)
}

// Timeout implements the net.Error-ish contract HTTP clients probe.
func (e *InjectedError) Timeout() bool { return false }

// Temporary marks injected faults as transient: retry layers should treat
// them exactly like real connection churn.
func (e *InjectedError) Temporary() bool { return true }

// HTTPRule describes faults for requests whose URL host contains Target and
// whose path contains Path (empty matches everything). Matching rules apply
// in registration order; a drop or black-hole short-circuits the rest.
type HTTPRule struct {
	Target string
	Path   string
	// DropProb is the probability the request fails immediately with an
	// InjectedError, never reaching the server (connection-refused
	// semantics: the server observes nothing).
	DropProb float64
	// BlackHoleProb is the probability the request hangs until its context
	// is cancelled (the client's timeout) — the stalled-RPC failure mode.
	BlackHoleProb float64
	// DelayProb/Delay add latency before the request is forwarded.
	DelayProb float64
	Delay     time.Duration
	// CorruptProb is the probability one byte of the response body is
	// flipped after a successful round trip.
	CorruptProb float64
	// LoseProb is the probability the response is lost on its way back: the
	// server receives and handles the request, and the client gets an
	// InjectedError. DropProb cannot express it, since a dropped request
	// never reaches the server.
	LoseProb float64
}

// FSRule describes faults for filesystem operations on paths containing
// Path (empty matches everything). Ops restricts which operations fault
// ("open", "read", "list", "create", "write", "sync"); nil matches
// all.
type FSRule struct {
	Path string
	Ops  []string
	// ErrProb is the probability the operation fails with an InjectedError.
	ErrProb float64
	// DelayProb/Delay add latency before the operation runs.
	DelayProb float64
	Delay     time.Duration
	// TornProb is the probability a "write" persists only a seeded-random
	// prefix of the buffer before failing — the torn/short write a power cut
	// leaves behind. Only meaningful for the write op.
	TornProb float64
	// CorruptProb is the probability a "read" succeeds but hands back its
	// bytes inverted: bit rot in a format without checksums, which every
	// decoder above must answer with an error. Only meaningful for the read
	// op.
	CorruptProb float64
	// Offset and Length, when Length > 0, narrow a "read" rule to reads
	// that overlap [Offset, Offset+Length) of the file: one column chunk,
	// say, and not the footer beside it — however the reader groups its
	// chunks into reads.
	Offset, Length int64
}

// matches reports whether the rule covers op on path; a "read" covers
// [off, off+n) of the file.
func (r *FSRule) matches(op, path string, off, n int64) bool {
	if r.Path != "" && !strings.Contains(path, r.Path) {
		return false
	}
	if r.Length > 0 && (op != "read" || off >= r.Offset+r.Length || off+n <= r.Offset) {
		return false
	}
	if len(r.Ops) == 0 {
		return true
	}
	for _, o := range r.Ops {
		if o == op {
			return true
		}
	}
	return false
}

// Counters tallies injected faults for test assertions.
type Counters struct {
	Dropped    atomic.Int64
	BlackHoled atomic.Int64
	Delayed    atomic.Int64
	Corrupted  atomic.Int64
	Lost       atomic.Int64
	FSErrors   atomic.Int64
	FSDelays   atomic.Int64
	// FSTornWrites counts writes that persisted only a prefix before failing.
	FSTornWrites atomic.Int64
	// FSCorruptReads counts reads that returned inverted bytes.
	FSCorruptReads atomic.Int64
}

// Injector is the seeded fault source shared by Transport and FS wrappers.
// All methods are safe for concurrent use.
//
//lint:ignore reachability the fault source of the chaos suites; no binary injects faults into itself
type Injector struct {
	// Clock is used for injected delays; defaults to RealClock. Set before
	// the injector is shared across goroutines.
	Clock Clock

	// Counters is exported for assertions on what was actually injected.
	Counters Counters

	seed int64

	mu        sync.Mutex
	rng       *rand.Rand
	httpRules []HTTPRule
	fsRules   []FSRule
}

// NewInjector creates an injector whose every probabilistic decision comes
// from a rand.Rand seeded with seed.
//
//lint:ignore reachability constructor of the chaos suites' fault source
func NewInjector(seed int64) *Injector {
	return &Injector{Clock: RealClock{}, seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Seed returns the seed, for logging alongside chaos failures.
func (in *Injector) Seed() int64 { return in.seed }

// FaultHTTP registers an HTTP rule.
func (in *Injector) FaultHTTP(r HTTPRule) {
	in.mu.Lock()
	in.httpRules = append(in.httpRules, r)
	in.mu.Unlock()
}

// FaultFS registers a filesystem rule.
func (in *Injector) FaultFS(r FSRule) {
	in.mu.Lock()
	in.fsRules = append(in.fsRules, r)
	in.mu.Unlock()
}

// Reset drops all rules (the seeded RNG keeps its position, preserving
// determinism across phases of one run).
func (in *Injector) Reset() {
	in.mu.Lock()
	in.httpRules = nil
	in.fsRules = nil
	in.mu.Unlock()
}

// roll draws one uniform [0,1) sample from the seeded RNG.
func (in *Injector) roll() float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64()
}

// intn draws a uniform [0,n) sample from the seeded RNG.
func (in *Injector) intn(n int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Intn(n)
}

// httpDecision is what the transport should do with one request.
type httpDecision struct {
	drop      bool
	blackHole bool
	delay     time.Duration
	corrupt   bool
	lose      bool
}

// decideHTTP evaluates every matching rule in order against one request.
func (in *Injector) decideHTTP(host, path string) httpDecision {
	in.mu.Lock()
	defer in.mu.Unlock()
	var d httpDecision
	for i := range in.httpRules {
		r := &in.httpRules[i]
		if r.Target != "" && !strings.Contains(host, r.Target) {
			continue
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		if r.DropProb > 0 && in.rng.Float64() < r.DropProb {
			d.drop = true
			return d
		}
		if r.BlackHoleProb > 0 && in.rng.Float64() < r.BlackHoleProb {
			d.blackHole = true
			return d
		}
		if r.DelayProb > 0 && r.Delay > 0 && in.rng.Float64() < r.DelayProb {
			d.delay += r.Delay
		}
		if r.CorruptProb > 0 && in.rng.Float64() < r.CorruptProb {
			d.corrupt = true
		}
		if r.LoseProb > 0 && in.rng.Float64() < r.LoseProb {
			d.lose = true
		}
	}
	return d
}

// fsDecision is what the FS wrapper should do with one operation.
type fsDecision struct {
	err     bool
	torn    bool // write persists a prefix, then fails (implies err)
	corrupt bool // read returns inverted bytes
	delay   time.Duration
}

// decideFS evaluates every matching rule in order against one operation
// (off and n are the offset and length of a read, 0 otherwise).
func (in *Injector) decideFS(op, path string, off, n int64) fsDecision {
	in.mu.Lock()
	defer in.mu.Unlock()
	var d fsDecision
	for i := range in.fsRules {
		r := &in.fsRules[i]
		if !r.matches(op, path, off, n) {
			continue
		}
		if r.DelayProb > 0 && r.Delay > 0 && in.rng.Float64() < r.DelayProb {
			d.delay += r.Delay
		}
		if op == "write" && r.TornProb > 0 && in.rng.Float64() < r.TornProb {
			d.err = true
			d.torn = true
			return d
		}
		if r.ErrProb > 0 && in.rng.Float64() < r.ErrProb {
			d.err = true
			return d
		}
		if op == "read" && r.CorruptProb > 0 && in.rng.Float64() < r.CorruptProb {
			d.corrupt = true
		}
	}
	return d
}

// clock returns the injector's clock, defaulting to real time.
func (in *Injector) clock() Clock {
	if in.Clock != nil {
		return in.Clock
	}
	return RealClock{}
}
