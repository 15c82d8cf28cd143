package cluster

import (
	"math/rand"
	"net/http"
	"time"

	"prestolite/internal/fault"
)

// ClientConfig collects every knob of the cluster's HTTP clients — the
// timeouts that used to be inline literals, the transport (the fault
// injection hook), the clock, and the retry/hedging policy. The zero value
// means "all defaults"; WithDefaults fills the blanks. It is shared by the
// coordinator's worker clients, the statement Client, the gateway's stats
// pollers, and every chaos test.
type ClientConfig struct {
	// WorkerTimeout bounds each coordinator→worker RPC (was a hardcoded 30s
	// literal). It is the backstop that turns a black-holed request into a
	// retryable error instead of a hang.
	WorkerTimeout time.Duration
	// StatementTimeout bounds a client→coordinator statement round trip
	// (was a hardcoded 120s literal).
	StatementTimeout time.Duration

	// Transport is the base RoundTripper for every client this config
	// builds; nil means http.DefaultTransport, and workerTransport for the
	// coordinator's worker clients. Chaos tests install a *fault.Transport
	// here.
	Transport http.RoundTripper
	// Clock drives backoff sleeps and hedge timers; nil means real time.
	Clock fault.Clock

	// MaxAttempts is how many times one RPC (result fetch, task start
	// round) is tried before the failure escalates to task rescheduling.
	MaxAttempts int
	// BaseBackoff is the first retry delay; it doubles per attempt with
	// ±50% jitter, capped at MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// RetryBudget is the per-query budget of task reschedules (a dead
	// worker's tasks restarting on survivors). Exhausting it yields
	// ErrRetryBudgetExhausted instead of retrying forever.
	RetryBudget int
	// HedgeDelay is how long a task-result fetch may be outstanding before
	// a duplicate (hedged) fetch races it — the straggler mitigation.
	// Result fetches are idempotent (the coordinator names the page index),
	// so whichever copy answers first wins. 0 disables hedging.
	HedgeDelay time.Duration
}

// DefaultClientConfig returns the production defaults.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		WorkerTimeout:    30 * time.Second,
		StatementTimeout: 120 * time.Second,
		Clock:            fault.RealClock{},
		MaxAttempts:      3,
		BaseBackoff:      25 * time.Millisecond,
		MaxBackoff:       time.Second,
		RetryBudget:      8,
		HedgeDelay:       500 * time.Millisecond,
	}
}

// WithDefaults fills every zero field from DefaultClientConfig, so partial
// configs (say, only a Transport) behave sanely. HedgeDelay < 0 means
// "explicitly disabled" and is preserved as 0.
func (cfg ClientConfig) WithDefaults() ClientConfig {
	def := DefaultClientConfig()
	if cfg.WorkerTimeout == 0 {
		cfg.WorkerTimeout = def.WorkerTimeout
	}
	if cfg.StatementTimeout == 0 {
		cfg.StatementTimeout = def.StatementTimeout
	}
	if cfg.Clock == nil {
		cfg.Clock = def.Clock
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = def.MaxAttempts
	}
	if cfg.BaseBackoff == 0 {
		cfg.BaseBackoff = def.BaseBackoff
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = def.MaxBackoff
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = def.RetryBudget
	}
	if cfg.HedgeDelay == 0 {
		cfg.HedgeDelay = def.HedgeDelay
	} else if cfg.HedgeDelay < 0 {
		cfg.HedgeDelay = 0
	}
	return cfg
}

// workerIdleConns is how many idle connections the coordinator keeps to each
// worker: what it can have in flight to one at a time — each statement
// running posts every task at once, one per source fragment on the worker
// (two or three), and a few statements run at once — with room to spare.
// http.DefaultTransport keeps two, so concurrent statements would close
// connections and dial them again.
const workerIdleConns = 64

// workerTransport carries coordinator→worker RPCs when the config names no
// Transport.
var workerTransport = newWorkerTransport()

func newWorkerTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 0 // no bound across workers; each has workerIdleConns
	t.MaxIdleConnsPerHost = workerIdleConns
	return t
}

// workerHTTPClient builds the per-worker RPC client.
func (cfg *ClientConfig) workerHTTPClient() *http.Client {
	var rt http.RoundTripper = workerTransport
	if cfg.Transport != nil {
		rt = cfg.Transport
	}
	return &http.Client{Timeout: cfg.WorkerTimeout, Transport: rt}
}

// statementHTTPClient builds the client→coordinator statement client.
func (cfg *ClientConfig) statementHTTPClient() *http.Client {
	return &http.Client{Timeout: cfg.StatementTimeout, Transport: cfg.Transport}
}

// StatementHTTPClient builds a statement-timeout client — what the gateway's
// proxying /v1/execute path uses to forward statements to coordinators.
func (cfg *ClientConfig) StatementHTTPClient() *http.Client {
	return cfg.statementHTTPClient()
}

// statsTimeout bounds a gateway's health/load poll of a coordinator's
// /v1/stats.
const statsTimeout = 2 * time.Second

// StatsHTTPClient builds the short-deadline client gateways use to poll
// coordinator stats and health.
func (cfg *ClientConfig) StatsHTTPClient() *http.Client {
	return &http.Client{Timeout: statsTimeout, Transport: cfg.Transport}
}

// backoff returns the sleep before retry attempt n (n >= 1): exponential
// from BaseBackoff, capped at MaxBackoff, with ±50% jitter so synchronized
// retry storms spread out. Jitter comes from the global RNG — it shifts
// timings, never outcomes, so seeded chaos runs stay reproducible.
func (cfg *ClientConfig) backoff(attempt int) time.Duration {
	d := cfg.BaseBackoff
	for i := 1; i < attempt && d < cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > cfg.MaxBackoff {
		d = cfg.MaxBackoff
	}
	if d <= 0 {
		return 0
	}
	half := int64(d) / 2
	return time.Duration(half + rand.Int63n(half+1))
}
