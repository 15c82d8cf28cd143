package druid

import (
	"fmt"

	"prestolite/internal/expr"
	"prestolite/internal/frame"
)

// AppendQuery appends q's binary form (internal/frame), the body of a
// broker query: the table, q's partial shape (appendShape), each
// aggregate's output name, the selected columns and the limit.
func AppendQuery(dst []byte, q Query) []byte {
	dst = q.appendShape(frame.AppendString(dst, q.Table))
	for _, a := range q.Aggregations {
		dst = frame.AppendString(dst, a.Name)
	}
	return frame.AppendVarint(frame.AppendStrings(dst, q.Columns), q.Limit)
}

// appendShape appends what a sealed segment's partial aggregate depends on
// besides the segment: the filters, the group-by columns and each
// aggregate's function and argument. Output names and the limit are
// applied after the merge, so statements that differ only there share the
// segment's memoised partial.
func (q *Query) appendShape(dst []byte) []byte {
	dst = frame.AppendStrings(expr.AppendComparisons(dst, q.Filters), q.GroupBy)
	dst = frame.AppendUvarint(dst, uint64(len(q.Aggregations)))
	for _, a := range q.Aggregations {
		dst = frame.AppendString(frame.AppendString(dst, a.Func), a.Column)
	}
	return dst
}

// DecodeQuery reads what AppendQuery wrote. Bytes that are no query's
// encoding are an error; a query that reads encodes back to the same bytes.
func DecodeQuery(b []byte) (Query, error) {
	r := frame.NewReader(b)
	q := Query{Table: r.Str(), Filters: expr.ReadComparisons(r), GroupBy: r.Strs()}
	if n := r.Count(); n > 0 {
		q.Aggregations = make([]Aggregation, n)
		for i := range q.Aggregations {
			q.Aggregations[i] = Aggregation{Func: r.Str(), Column: r.Str()}
		}
		for i := range q.Aggregations {
			q.Aggregations[i].Name = r.Str()
		}
	}
	q.Columns, q.Limit = r.Strs(), r.Varint()
	if err := r.Close(); err != nil {
		return Query{}, fmt.Errorf("druid: query: %w", err)
	}
	return q, nil
}
