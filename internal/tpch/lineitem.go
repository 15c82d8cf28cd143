// Package tpch generates deterministic TPC-H LINEITEM data, used by the
// writer benchmarks (Figs 18-20: "when writing all columns of TPCH
// LINEITEM, the throughput gain is around 50%").
package tpch

import (
	"math/rand"

	"prestolite/internal/block"
	"prestolite/internal/types"
)

// LineItemColumns is the LINEITEM schema (typed to the engine's type
// system; dates are varchar datestrs as in the warehouse tables).
var LineItemColumns = []struct {
	Name string
	Type *types.Type
}{
	{"l_orderkey", types.Bigint},
	{"l_partkey", types.Bigint},
	{"l_suppkey", types.Bigint},
	{"l_linenumber", types.Bigint},
	{"l_quantity", types.Double},
	{"l_extendedprice", types.Double},
	{"l_discount", types.Double},
	{"l_tax", types.Double},
	{"l_returnflag", types.Varchar},
	{"l_linestatus", types.Varchar},
	{"l_shipdate", types.Varchar},
	{"l_commitdate", types.Varchar},
	{"l_receiptdate", types.Varchar},
	{"l_shipinstruct", types.Varchar},
	{"l_shipmode", types.Varchar},
	{"l_comment", types.Varchar},
}

// ColumnNames returns the schema column names.
func ColumnNames() []string {
	out := make([]string, len(LineItemColumns))
	for i, c := range LineItemColumns {
		out[i] = c.Name
	}
	return out
}

// ColumnTypes returns the schema column types.
func ColumnTypes() []*types.Type {
	out := make([]*types.Type, len(LineItemColumns))
	for i, c := range LineItemColumns {
		out[i] = c.Type
	}
	return out
}

var (
	returnFlags   = []string{"R", "A", "N"}
	lineStatuses  = []string{"O", "F"}
	shipInstructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	shipModes     = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	commentWords  = []string{"carefully", "quickly", "final", "deposits", "requests", "furiously",
		"express", "regular", "ironic", "pending", "bold", "accounts", "packages", "theodolites"}
)

// date and comment build their strings in a small buffer, one allocation
// each: they run four times a row, and GenerateRows is most of what building
// a lineitem table costs. The draws and their order are part of the
// generator's output and must not change.
func date(r *rand.Rand) string {
	y, m, d := 1992+r.Intn(7), 1+r.Intn(12), 1+r.Intn(28)
	return string([]byte{
		byte('0' + y/1000), byte('0' + y/100%10), byte('0' + y/10%10), byte('0' + y%10), '-',
		byte('0' + m/10), byte('0' + m%10), '-',
		byte('0' + d/10), byte('0' + d%10),
	})
}

func comment(r *rand.Rand) string {
	out := make([]byte, 0, 96) // seven of the longest word and six spaces are 83
	for i, n := 0, 2+r.Intn(6); i < n; i++ {
		if i > 0 {
			out = append(out, ' ')
		}
		out = append(out, commentWords[r.Intn(len(commentWords))]...)
	}
	return string(out)
}

// GenerateRows produces n deterministic LINEITEM rows for a seed.
func GenerateRows(seed int64, n int) [][]any {
	r := rand.New(rand.NewSource(seed))
	rows := make([][]any, n)
	for i := range rows {
		quantity := float64(1 + r.Intn(50))
		price := quantity * (900 + float64(r.Intn(100000))/100)
		rows[i] = []any{
			int64(i/4 + 1),            // l_orderkey
			int64(r.Intn(200000) + 1), // l_partkey
			int64(r.Intn(10000) + 1),  // l_suppkey
			int64(i%4 + 1),            // l_linenumber
			quantity,                  // l_quantity
			price,                     // l_extendedprice
			float64(r.Intn(11)) / 100, // l_discount
			float64(r.Intn(9)) / 100,  // l_tax
			returnFlags[r.Intn(3)],    // l_returnflag
			lineStatuses[r.Intn(2)],   // l_linestatus
			date(r),                   // l_shipdate
			date(r),                   // l_commitdate
			date(r),                   // l_receiptdate
			shipInstructs[r.Intn(4)],  // l_shipinstruct
			shipModes[r.Intn(7)],      // l_shipmode
			comment(r),                // l_comment
		}
	}
	return rows
}

// GeneratePage produces one page of n LINEITEM rows.
func GeneratePage(seed int64, n int) *block.Page {
	pb := block.NewPageBuilder(ColumnTypes())
	for _, row := range GenerateRows(seed, n) {
		pb.AppendRow(row)
	}
	return pb.Build()
}
