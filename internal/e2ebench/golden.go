package e2ebench

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// GoldenJSON recomputes golden.json from scratch: the reference engine's
// answer to every adhoc statement over a freshly generated full-scale
// warehouse, and the generator checksums. Writing its output over
// golden.json re-baselines the benchmark, which only a change that claims no
// gain may do.
func GoldenJSON() ([]byte, error) {
	statements, err := tripsGolden()
	if err != nil {
		return nil, err
	}
	// One statement per line, sorted: a re-baseline reads as a line diff.
	line := func(v any) string {
		var sb strings.Builder
		enc := json.NewEncoder(&sb)
		enc.SetEscapeHTML(false) // keep ">=" readable
		if err := enc.Encode(v); err != nil {
			panic(err) // strings and ints always marshal
		}
		return strings.TrimSuffix(sb.String(), "\n")
	}
	sqls := make([]string, 0, len(statements))
	for sql := range statements {
		sqls = append(sqls, sql)
	}
	sort.Strings(sqls)
	out := "{\n \"lineitem\": " + line(lineitemPin()) + ",\n \"events\": " + line(eventsPin()) + ",\n \"statements\": {\n"
	for i, sql := range sqls {
		if i > 0 {
			out += ",\n"
		}
		out += "  " + line(sql) + ": " + line(statements[sql])
	}
	return []byte(out + "\n }\n}"), nil
}

// CheckGolden recomputes the golden content and lists every entry of the
// checked-in golden.json that no longer matches: the way to tell a data
// generator or reference-engine change from a wrong answer by the cluster.
func CheckGolden() error {
	want, err := loadGolden()
	if err != nil {
		return err
	}
	statements, err := tripsGolden()
	if err != nil {
		return err
	}
	var diffs []string
	if d := want.Lineitem.matches(lineitemPin()); d != "" {
		diffs = append(diffs, "lineitem rows: "+d)
	}
	if d := want.Events.matches(eventsPin()); d != "" {
		diffs = append(diffs, "stream events: "+d)
	}
	for sql, got := range statements {
		w, ok := want.Statements[sql]
		if !ok {
			diffs = append(diffs, "no golden entry: "+shortSQL(sql))
		} else if d := w.matches(got); d != "" {
			diffs = append(diffs, shortSQL(sql)+": "+d)
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("golden.json disagrees with the generators and the reference engine:\n  %s", strings.Join(diffs, "\n  "))
	}
	return nil
}
