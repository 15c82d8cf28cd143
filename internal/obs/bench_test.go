package obs

import (
	"testing"
	"time"
)

// BenchmarkRecordPage is the benchmark guard for the operator hot loop: one
// Recorder.RecordPage call must stay well under ~20ns so instrumentation
// never regresses page processing (the statsOperator wrapper in
// internal/execution records through a Recorder). Run with:
//
//	go test -bench=Record -benchmem ./internal/obs/
var sinkStats OperatorStats

func BenchmarkRecordPage(b *testing.B) {
	r := NewRecorder(&sinkStats)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.RecordPage(1024, 8192)
	}
}

func BenchmarkRecordWall(b *testing.B) {
	r := NewRecorder(&sinkStats)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.RecordWall(time.Microsecond)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) & (1<<20 - 1) * time.Nanosecond)
	}
}
