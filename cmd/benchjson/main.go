// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON report:
//
//	go test -bench BenchmarkIntraTaskParallelism -run '^$' . | benchjson -o BENCH_PR8.json
//
// Each benchmark line becomes one result entry. Sub-benchmarks named
// ".../drivers=N" are additionally folded into a speedups section keyed by
// workload, reporting each driver count's throughput relative to drivers=1 —
// the number the intra-task parallelism acceptance criterion reads. Workload
// pairs named X/cache=on and X/cache=off produce a cache_speedups section: the
// cache hierarchy's steady-state throughput over the cold baseline.
//
// With -compare OLD.json the report is additionally checked against a
// previous run: any benchmark present in both whose ns/op regressed more
// than 20% fails the command (exit 1) after the new report is written —
// the trajectory gate for BENCH_*.json files checked into the repo.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

type result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric units (e.g. "p99-ms", "rows/s")
	// keyed by unit string.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	Context  map[string]string             `json:"context,omitempty"`
	Results  []result                      `json:"results"`
	Speedups map[string]map[string]float64 `json:"speedups,omitempty"`
	// CacheSpeedups compares each workload X/cache=on against its
	// X/cache=off sibling — steady-state throughput with the §VII cache
	// hierarchy (chunk, fragment, result tiers + affinity scheduling)
	// relative to every refresh running cold.
	CacheSpeedups map[string]float64 `json:"cache_speedups,omitempty"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	compare := flag.String("compare", "", "previous report to diff against; >20% ns/op regressions fail")
	flag.Parse()

	rep := report{Context: map[string]string{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		for _, key := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, key+": "); ok {
				rep.Context[key] = v
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		r := result{Name: trimProcSuffix(fields[0])}
		var err error
		if r.Iterations, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue
		}
		for i := 2; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				if v, err := strconv.ParseFloat(val, 64); err == nil {
					r.NsPerOp = v
				}
			case "B/op":
				if v, err := strconv.ParseInt(val, 10, 64); err == nil {
					r.BytesPerOp = v
				}
			case "allocs/op":
				if v, err := strconv.ParseInt(val, 10, 64); err == nil {
					r.AllocsPerOp = v
				}
			default:
				if v, err := strconv.ParseFloat(val, 64); err == nil {
					if r.Metrics == nil {
						r.Metrics = map[string]float64{}
					}
					r.Metrics[unit] = v
				}
			}
		}
		rep.Results = append(rep.Results, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	rep.Speedups = speedups(rep.Results)
	rep.CacheSpeedups = cacheSpeedups(rep.Results)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(data); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	// The comparison runs after the report is written: a failing gate still
	// leaves the new numbers on disk to inspect.
	if *compare != "" && regressed(rep.Results, *compare) {
		os.Exit(1)
	}
}

// regressionThreshold is how much slower (ns/op) a benchmark may get
// relative to the compared report before the run fails.
const regressionThreshold = 1.20

// regressed diffs the new results against the report at path and reports
// whether any shared benchmark slowed down past the threshold.
func regressed(results []result, path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: -compare:", err)
		return true
	}
	var old report
	if err := json.Unmarshal(data, &old); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: -compare %s: %v\n", path, err)
		return true
	}
	base := make(map[string]float64, len(old.Results))
	for _, r := range old.Results {
		if r.NsPerOp > 0 {
			base[r.Name] = r.NsPerOp
		}
	}
	bad := false
	for _, r := range results {
		was, ok := base[r.Name]
		if !ok || r.NsPerOp <= 0 {
			continue
		}
		if r.NsPerOp > was*regressionThreshold {
			fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s: %.0f ns/op, was %.0f (%.2fx > %.2fx allowed)\n",
				r.Name, r.NsPerOp, was, r.NsPerOp/was, regressionThreshold)
			bad = true
		}
	}
	if bad {
		fmt.Fprintf(os.Stderr, "benchjson: regressions vs %s\n", path)
	}
	return bad
}

// cacheSpeedups pairs each ".../cache=on" workload with its ".../cache=off"
// sibling and reports the cache hierarchy's speedup over the cold baseline —
// the dashboard-QPS acceptance ratio.
func cacheSpeedups(results []result) map[string]float64 {
	byName := make(map[string]float64, len(results))
	for _, r := range results {
		if r.NsPerOp > 0 {
			byName[r.Name] = r.NsPerOp
		}
	}
	out := map[string]float64{}
	for _, r := range results {
		workload, ok := strings.CutSuffix(r.Name, "/cache=on")
		if !ok || r.NsPerOp <= 0 {
			continue
		}
		base, ok := byName[workload+"/cache=off"]
		if !ok {
			continue
		}
		// Two decimal places: these are summary ratios, not raw data.
		out[workload] = float64(int(base/r.NsPerOp*100+0.5)) / 100
	}
	return out
}

// trimProcSuffix drops go test's trailing -GOMAXPROCS from a benchmark name.
func trimProcSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// speedups groups ".../drivers=N" results by workload and reports each
// driver count's speedup over that workload's drivers=1 run.
func speedups(results []result) map[string]map[string]float64 {
	type sample struct {
		drivers string
		nsPerOp float64
	}
	groups := map[string][]sample{}
	for _, r := range results {
		i := strings.LastIndex(r.Name, "/drivers=")
		if i < 0 || r.NsPerOp <= 0 {
			continue
		}
		workload := r.Name[:i]
		groups[workload] = append(groups[workload], sample{r.Name[i+len("/drivers="):], r.NsPerOp})
	}
	out := map[string]map[string]float64{}
	for workload, samples := range groups {
		var base float64
		for _, s := range samples {
			if s.drivers == "1" {
				base = s.nsPerOp
			}
		}
		if base <= 0 {
			continue
		}
		m := map[string]float64{}
		for _, s := range samples {
			// Two decimal places: these are summary ratios, not raw data.
			m["drivers="+s.drivers] = float64(int(base/s.nsPerOp*100+0.5)) / 100
		}
		out[workload] = m
	}
	return out
}
