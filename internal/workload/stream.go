package workload

import (
	"context"
	"math/rand"
	"time"
)

// Streaming producer mode: a rate-limited, deterministic event generator
// feeding the real-time ingestion path (internal/ingest). The generator is
// paced by wall-clock ticks but the event *contents* depend only on the
// seed and sequence number, so a run is replayable row-for-row at any rate.

// StreamConfig shapes the generated stream.
type StreamConfig struct {
	// EventsPerSec is the target emission rate. <= 0 means "as fast as
	// possible" (no pacing) — useful for load tests.
	EventsPerSec int
	// MaxEvents stops the stream after this many events. <= 0 means run
	// until the context is cancelled.
	MaxEvents int
	// Seed makes the event contents deterministic.
	Seed int64
}

// StreamEvent is one generated event, matching the real-time events schema
// (ts bigint, country varchar, clicks bigint).
type StreamEvent struct {
	Seq     int64
	Time    time.Time
	Key     string
	Country string
	Clicks  int64
}

// streamCountries is the keyed dimension; keys hash to partitions, so a
// small fixed set exercises per-key ordering.
var streamCountries = []string{"us", "de", "jp", "br", "in", "fr", "uk", "mx"}

// MakeStreamEvent deterministically builds event number seq for a seed.
// Exposed so tests and verifiers can recompute exactly what a stream sent.
func MakeStreamEvent(seed, seq int64, now time.Time) StreamEvent {
	r := rand.New(rand.NewSource(seed + seq*1_000_003))
	c := streamCountries[r.Intn(len(streamCountries))]
	return StreamEvent{
		Seq:     seq,
		Time:    now,
		Key:     c,
		Country: c,
		Clicks:  int64(r.Intn(50)),
	}
}

// RunStream emits events at the configured rate, calling send for each one
// until MaxEvents is reached or the context is cancelled. It returns the
// number of events emitted. Pacing uses a 5ms tick with fractional credit
// accumulation, so rates below 200 events/sec are honored too. A send error
// stops the stream and is returned with the count so far.
func RunStream(ctx context.Context, cfg StreamConfig, send func(StreamEvent) error) (int64, error) {
	var seq int64
	emit := func() error {
		ev := MakeStreamEvent(cfg.Seed, seq, time.Now())
		if err := send(ev); err != nil {
			return err
		}
		seq++
		return nil
	}
	if cfg.EventsPerSec <= 0 {
		for cfg.MaxEvents <= 0 || seq < int64(cfg.MaxEvents) {
			if ctx.Err() != nil {
				return seq, nil
			}
			if err := emit(); err != nil {
				return seq, err
			}
		}
		return seq, nil
	}
	const tick = 5 * time.Millisecond
	perTick := float64(cfg.EventsPerSec) * tick.Seconds()
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	var credit float64
	for {
		select {
		case <-ctx.Done():
			return seq, nil
		case <-ticker.C:
			credit += perTick
			for credit >= 1 {
				credit--
				if cfg.MaxEvents > 0 && seq >= int64(cfg.MaxEvents) {
					return seq, nil
				}
				if err := emit(); err != nil {
					return seq, err
				}
			}
			if cfg.MaxEvents > 0 && seq >= int64(cfg.MaxEvents) {
				return seq, nil
			}
		}
	}
}
