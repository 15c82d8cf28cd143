package e2ebench

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"prestolite/internal/block"
	"prestolite/internal/cluster"
)

// expectation is what a statement must return, order-insensitively. Results
// of at most maxStoredRows rows are stored cell by cell, so computed floats
// (a sum folded in a different order by a different number of drivers) can
// be compared with a tolerance. Larger results are raw column values — no
// arithmetic — and are pinned exactly by a digest.
type expectation struct {
	Rows   int        `json:"rows"`
	Digest string     `json:"digest,omitempty"`
	Values [][]string `json:"values,omitempty"`
}

const maxStoredRows = 512

// floatTolerance is relative: sums of ~1e4 doubles in any order agree far
// more tightly than this.
const floatTolerance = 1e-9

// cell renders one value with its type, so the golden file round-trips
// int64 against float64 and a tolerance applies to floats only.
func cell(v any) string {
	switch t := v.(type) {
	case nil:
		return "n:"
	case int64:
		return "i:" + strconv.FormatInt(t, 10)
	case float64:
		return "f:" + strconv.FormatFloat(t, 'g', -1, 64)
	case string:
		return "s:" + t
	case bool:
		return "b:" + strconv.FormatBool(t)
	default:
		return fmt.Sprintf("x:%v", t)
	}
}

// sortKey orders rows by their non-float cells, which in every template
// include the whole group-by key, so float jitter never reorders rows.
func sortKey(row []string) string {
	var sb strings.Builder
	for _, c := range row {
		if !strings.HasPrefix(c, "f:") {
			sb.WriteString(c)
		}
		sb.WriteByte(0)
	}
	return sb.String()
}

// expect summarizes decoded result pages.
func expect(pages []*block.Page) expectation {
	e := expectation{}
	for _, p := range pages {
		e.Rows += p.Count()
	}
	if e.Rows > maxStoredRows {
		var sum uint64
		for _, p := range pages {
			sum += pageDigest(p)
		}
		e.Digest = strconv.FormatUint(sum, 16)
		return e
	}
	e.Values = make([][]string, 0, e.Rows)
	for _, p := range pages {
		for i := 0; i < p.Count(); i++ {
			row := p.Row(i)
			out := make([]string, len(row))
			for c, v := range row {
				out[c] = cell(v)
			}
			e.Values = append(e.Values, out)
		}
	}
	sort.SliceStable(e.Values, func(i, j int) bool { return sortKey(e.Values[i]) < sortKey(e.Values[j]) })
	return e
}

// expectResult decodes a wire result and summarizes it.
func expectResult(res *cluster.QueryResult) (expectation, error) {
	pages := make([]*block.Page, len(res.Pages))
	for i, data := range res.Pages {
		p, err := block.DecodePage(data)
		if err != nil {
			return expectation{}, err
		}
		pages[i] = p
	}
	return expect(pages), nil
}

// matches reports how got differs from want ("" = it does not).
func (want expectation) matches(got expectation) string {
	if got.Rows != want.Rows {
		return fmt.Sprintf("%d rows, want %d", got.Rows, want.Rows)
	}
	if want.Digest != got.Digest {
		return fmt.Sprintf("row digest %s, want %s", got.Digest, want.Digest)
	}
	for r := range want.Values {
		w, g := want.Values[r], got.Values[r]
		if len(w) != len(g) {
			return fmt.Sprintf("row %d has %d columns, want %d", r, len(g), len(w))
		}
		for c := range w {
			if !cellsEqual(w[c], g[c]) {
				return fmt.Sprintf("row %d column %d is %s, want %s", r, c, g[c], w[c])
			}
		}
	}
	return ""
}

func cellsEqual(a, b string) bool {
	if a == b {
		return true
	}
	if !strings.HasPrefix(a, "f:") || !strings.HasPrefix(b, "f:") {
		return false
	}
	x, errX := strconv.ParseFloat(a[2:], 64)
	y, errY := strconv.ParseFloat(b[2:], 64)
	if errX != nil || errY != nil {
		return false
	}
	return math.Abs(x-y) <= floatTolerance*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
}

// pageDigest is the sum over rows of a 64-bit hash of the row's cells:
// insensitive to row order within and across pages, sensitive to
// multiplicity. Flat blocks hash without boxing; the rest go through Value.
func pageDigest(p *block.Page) uint64 {
	h := make([]uint64, p.Count())
	for i := range h {
		h[i] = 0xcbf29ce484222325
	}
	for _, b := range p.Blocks {
		switch t := block.Unwrap(b).(type) {
		case *block.Int64Block:
			for i, v := range t.Values {
				if t.IsNull(i) {
					h[i] = mixNull(h[i])
				} else {
					h[i] = mixInt(h[i], v)
				}
			}
		case *block.Float64Block:
			for i, v := range t.Values {
				if t.IsNull(i) {
					h[i] = mixNull(h[i])
				} else {
					h[i] = mixFloat(h[i], v)
				}
			}
		case *block.VarcharBlock:
			for i, v := range t.Values {
				if t.IsNull(i) {
					h[i] = mixNull(h[i])
				} else {
					h[i] = mixString(h[i], v)
				}
			}
		default:
			for i := range h {
				h[i] = mixValue(h[i], b.Value(i))
			}
		}
	}
	var sum uint64
	for _, x := range h {
		sum += mix64(x, 0x2545f4914f6cdd1d)
	}
	return sum
}

func mix64(h, x uint64) uint64 {
	h = (h ^ x) * 0x100000001b3
	return h ^ (h >> 29)
}

func mixNull(h uint64) uint64             { return mix64(h, 0xa5a5a5a5) }
func mixInt(h uint64, v int64) uint64     { return mix64(mix64(h, 1), uint64(v)) }
func mixFloat(h uint64, v float64) uint64 { return mix64(mix64(h, 2), math.Float64bits(v)) }

func mixString(h uint64, s string) uint64 {
	h = mix64(h, 3)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return mix64(h, uint64(len(s)))
}

// mixValue hashes a boxed value exactly as the flat-block paths do.
func mixValue(h uint64, v any) uint64 {
	switch t := v.(type) {
	case nil:
		return mixNull(h)
	case int64:
		return mixInt(h, t)
	case float64:
		return mixFloat(h, t)
	case string:
		return mixString(h, t)
	default:
		return mixString(mix64(h, 4), fmt.Sprint(t))
	}
}

// ---------------------------------------------------------------------------
// Golden file.

// golden pins what the full-scale benchmark data must look like, so that a
// generator change outside this directory fails loudly instead of silently
// moving every baseline: the expected answer of every statement the adhoc
// workloads can draw (which pins the trips warehouse row for row), a
// checksum of the generated lineitem rows and of a seed-1 event prefix.
type golden struct {
	// Lineitem and Events are digests of tpch.GenerateRows for the dashboard's
	// initial files and of workload.MakeStreamEvent for seed 1.
	Lineitem expectation `json:"lineitem"`
	Events   expectation `json:"events"`
	// Statements maps SQL text to its expected result over the full-scale
	// trips warehouse, as computed by a single-driver embedded core.Engine.
	Statements map[string]expectation `json:"statements"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (*golden, error) {
	g := &golden{}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, fmt.Errorf("e2ebench: golden.json: %w", err)
	}
	return g, nil
}

// rowsExpectation digests boxed rows (generated data rather than results).
func rowsExpectation(rows [][]any) expectation {
	e := expectation{Rows: len(rows)}
	var sum uint64
	for _, row := range rows {
		h := uint64(0xcbf29ce484222325)
		for _, v := range row {
			h = mixValue(h, v)
		}
		sum += mix64(h, 0x2545f4914f6cdd1d)
	}
	e.Digest = strconv.FormatUint(sum, 16)
	return e
}
