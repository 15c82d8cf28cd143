package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"prestolite/internal/druid"
	"prestolite/internal/fault"
	"prestolite/internal/ingest"
	"prestolite/internal/obs"
	"prestolite/internal/planner"
	"prestolite/internal/workload"
)

// Chaos for the real-time path (run via `make chaos-ingest`): a continuous
// rate-limited producer streams events through the partitioned log into
// druid segments while analytical hybrid queries run on a faulted cluster.
// The contract under test is the ingestion SLA: events become queryable
// within 5 seconds, and once the stream quiesces the hybrid table is
// row-exact — every historical row and every streamed event counted exactly
// once, despite worker faults, slow reads, seals and compactions happening
// underneath the queries.

const (
	ingestHistRows = 500
	ingestEvents   = 4000
	ingestRate     = 2000 // events/sec
	ingestSLA      = 5 * time.Second
)

func ingestSession() *planner.Session {
	return &planner.Session{Catalog: "hybrid", Schema: "default", User: "chaos", Properties: map[string]string{}}
}

// ingestCount runs a single-value aggregate on the cluster and returns it.
func ingestCount(t *testing.T, coord *Coordinator, query string) int64 {
	t.Helper()
	res, err := coord.Query(ingestSession(), query)
	if err != nil {
		t.Fatalf("query failed: %v\n  query: %s", err, query)
	}
	rows, err := res.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0]) != 1 {
		t.Fatalf("want single aggregate value, got %v", rows)
	}
	v, ok := rows[0][0].(int64)
	if !ok {
		t.Fatalf("aggregate value %v (%T) is not int64", rows[0][0], rows[0][0])
	}
	return v
}

// TestChaosIngestFreshnessAndExactness is the PR's SLA proof. Per seed:
//
//  1. stream ingestEvents deterministic events at ingestRate through the
//     partitioned log into druid, while one worker's result path is dead
//     and hive reads are randomly delayed;
//  2. during the stream, analytical hybrid counts must never decrease and
//     never exceed what the producer has sent (no duplicates from the
//     boundary or from segment churn);
//  3. marker events sent mid-stream must become queryable within the 5s
//     SLA (polled end-to-end: producer -> log -> segment -> SQL);
//  4. after quiesce, counts and sums are exact against the replayable
//     stream definition, and the freshness histogram p99 is within SLA.
func TestChaosIngestFreshnessAndExactness(t *testing.T) {
	for _, seed := range ChaosSeeds(t) {
		t.Logf("chaos seed %d (re-run with CHAOS_SEED=%d)", seed, seed)
		inj := fault.NewInjector(seed)
		// Small segments so the stream exercises seal + compaction mid-query.
		catalogs, rt := ChaosEventsCatalogs(t, inj, ingestHistRows, druid.SegmentConfig{
			SealRows:         1500,
			SealAge:          500 * time.Millisecond,
			CompactBelowRows: 1000,
			CompactBatch:     8,
		})
		coord, workers := chaosCluster(t, catalogs, 3, ChaosConfig(inj))
		// workers[0] runs its tasks, and every answer carrying their output
		// is lost on the way back.
		inj.FaultHTTP(fault.HTTPRule{Target: workers[0].Addr(), Path: "/v1/task", LoseProb: 1})
		inj.FaultFS(fault.FSRule{Path: "events_hist", Ops: []string{"read"}, DelayProb: 0.2, Delay: 2 * time.Millisecond})

		log := ingest.NewLog()
		topic, err := log.CreateTopic(ChaosEventsTable, 4)
		if err != nil {
			t.Fatal(err)
		}
		producer := ingest.NewProducer(topic, ingest.ProducerConfig{BatchRecords: 64, Linger: 5 * time.Millisecond})
		reg := obs.NewRegistry()
		writer := ingest.NewSegmentWriter(log, topic, rt, ingest.WriterConfig{
			MaintainEvery: 50 * time.Millisecond,
		})
		writer.RegisterObsMetrics(reg)
		writer.Start()

		var markers, markerClicks int64
		Watchdog(t, 120*time.Second, func() {
			ctx := context.Background()
			streamDone := make(chan int64, 1)
			go func() {
				sent, err := workload.RunStream(ctx, workload.StreamConfig{
					EventsPerSec: ingestRate,
					MaxEvents:    ingestEvents,
					Seed:         seed,
				}, func(ev workload.StreamEvent) error {
					return producer.Send(ev.Key, ev.Time, []any{ChaosEventsBoundary + ev.Seq, ev.Country, ev.Clicks})
				})
				if err != nil {
					t.Errorf("seed %d: stream stopped early after %d events: %v", seed, sent, err)
				}
				streamDone <- sent
			}()

			// Phase 2+3: concurrent queries and freshness probes while the
			// stream runs (~2s at ingestRate).
			prev := int64(0)
			probe := 0
			for done := false; !done; {
				select {
				case <-streamDone:
					done = true
				default:
					n := ingestCount(t, coord, "SELECT count(*) AS n FROM events")
					if n < prev {
						t.Errorf("seed %d: count went backwards: %d -> %d", seed, prev, n)
					}
					ceiling := int64(ingestHistRows)
					for p := 0; p < topic.Partitions(); p++ {
						ceiling += topic.EndOffset(p)
					}
					if n > ceiling {
						t.Errorf("seed %d: count %d exceeds rows produced so far (%d) — duplicates", seed, n, ceiling)
					}
					prev = n

					// Freshness probe: a marker event must be queryable in 5s.
					markerTs := int64(10_000_000) + int64(probe)
					probe++
					sent := time.Now()
					if err := producer.Send("marker", sent, []any{markerTs, "marker", int64(1)}); err != nil {
						t.Fatalf("seed %d: marker send: %v", seed, err)
					}
					markers++
					markerClicks++
					q := fmt.Sprintf("SELECT count(*) AS n FROM events WHERE ts = %d", markerTs)
					for ingestCount(t, coord, q) != 1 {
						if time.Since(sent) > ingestSLA {
							t.Fatalf("seed %d: marker %d not queryable after %v (SLA %v)", seed, markerTs, time.Since(sent), ingestSLA)
						}
						time.Sleep(20 * time.Millisecond)
					}
					if lat := time.Since(sent); lat > ingestSLA {
						t.Errorf("seed %d: marker freshness %v exceeds SLA %v", seed, lat, ingestSLA)
					}
				}
			}

			// Phase 4: quiesce — flush the producer, drain the log, stop.
			if err := producer.Close(); err != nil {
				t.Fatalf("seed %d: producer close: %v", seed, err)
			}
			deadline := time.Now().Add(ingestSLA)
			for log.Lag(ingest.DefaultWriterGroup, ChaosEventsTable) > 0 {
				if time.Now().After(deadline) {
					t.Fatalf("seed %d: lag %d not drained within %v", seed, log.Lag(ingest.DefaultWriterGroup, ChaosEventsTable), ingestSLA)
				}
				time.Sleep(10 * time.Millisecond)
			}
			writer.Stop()
		})

		// Exact assertions against the replayable stream definition.
		var streamClicks int64
		for i := int64(0); i < ingestEvents; i++ {
			streamClicks += workload.MakeStreamEvent(seed, i, time.Time{}).Clicks
		}
		wantTotal := int64(ingestHistRows) + ingestEvents + markers
		if got := ingestCount(t, coord, "SELECT count(*) AS n FROM events"); got != wantTotal {
			t.Errorf("seed %d: final count(*) = %d, want %d", seed, got, wantTotal)
		}
		if got := ingestCount(t, coord, fmt.Sprintf("SELECT count(*) AS n FROM events WHERE ts < %d", ChaosEventsBoundary)); got != int64(ingestHistRows) {
			t.Errorf("seed %d: historical count = %d, want %d", seed, got, ingestHistRows)
		}
		if got := ingestCount(t, coord, fmt.Sprintf("SELECT count(*) AS n FROM events WHERE ts >= %d", ChaosEventsBoundary)); got != ingestEvents+markers {
			t.Errorf("seed %d: real-time count = %d, want %d", seed, got, ingestEvents+markers)
		}
		var wantClicks int64
		for i := 0; i < ingestHistRows; i++ {
			wantClicks += ChaosHistClicks(i)
		}
		wantClicks += streamClicks + markerClicks
		if got := ingestCount(t, coord, "SELECT sum(clicks) AS s FROM events"); got != wantClicks {
			t.Errorf("seed %d: final sum(clicks) = %d, want %d", seed, got, wantClicks)
		}

		// Ingest pipeline metrics: every row written, none dropped, and the
		// end-to-end freshness histogram inside SLA.
		snap := reg.Snapshot()
		if got := snap.Counters["ingest_rows_written"]; got != ingestEvents+markers {
			t.Errorf("seed %d: ingest_rows_written = %d, want %d", seed, got, ingestEvents+markers)
		}
		if got := snap.Counters["ingest_write_errors"]; got != 0 {
			t.Errorf("seed %d: ingest_write_errors = %d, want 0", seed, got)
		}
		hs := writer.Freshness().Snapshot()
		if hs.Count != ingestEvents+markers {
			t.Errorf("seed %d: freshness observations = %d, want %d", seed, hs.Count, ingestEvents+markers)
		}
		if p99 := time.Duration(hs.P99); p99 > ingestSLA {
			t.Errorf("seed %d: freshness p99 = %v exceeds SLA %v", seed, p99, ingestSLA)
		}

		// The lifecycle kept the segment census bounded: the stream must not
		// leave one segment per micro-batch behind.
		stats := rt.Stats()
		if stats.Sealed+stats.Open > 40 {
			t.Errorf("seed %d: %d segments for %d rows — lifecycle not consolidating (%+v)",
				seed, stats.Sealed+stats.Open, stats.Rows, stats)
		}
		t.Logf("seed %d: segments open=%d sealed=%d compacted=%d rows=%d freshness p50=%v p99=%v",
			seed, stats.Open, stats.Sealed, stats.Compacted, stats.Rows,
			time.Duration(hs.P50), time.Duration(hs.P99))
	}
}
