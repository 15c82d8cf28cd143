package obs

import "prestolite/internal/frame"

// AppendSnapshots appends per-operator statistics in their binary form: what
// a task's final results header and its live /v1/task/{id}/stats answer
// carry to the coordinator.
func AppendSnapshots(dst []byte, snaps []OperatorStatsSnapshot) []byte {
	dst = frame.AppendUvarint(dst, uint64(len(snaps)))
	for _, s := range snaps {
		dst = frame.AppendString(frame.AppendVarint(dst, int64(s.ID)), s.Name)
		for _, v := range [...]int64{s.RowsIn, s.BytesIn, s.RowsOut, s.BytesOut, s.WallNanos, s.Pages, s.PeakBatchRows, int64(s.Tasks), int64(s.Drivers)} {
			dst = frame.AppendVarint(dst, v)
		}
	}
	return dst
}

// ReadSnapshots reads what AppendSnapshots wrote; nil for none.
func ReadSnapshots(r *frame.Reader) []OperatorStatsSnapshot {
	n := r.Count()
	if n == 0 {
		return nil
	}
	snaps := make([]OperatorStatsSnapshot, n)
	for i := range snaps {
		snaps[i] = OperatorStatsSnapshot{
			ID: r.Int(), Name: r.Str(),
			RowsIn: r.Varint(), BytesIn: r.Varint(), RowsOut: r.Varint(), BytesOut: r.Varint(),
			WallNanos: r.Varint(), Pages: r.Varint(), PeakBatchRows: r.Varint(),
			Tasks: r.Int(), Drivers: r.Int(),
		}
	}
	return snaps
}
