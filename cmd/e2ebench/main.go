// Command e2ebench is the repository's one benchmark (see BENCHMARK.json and
// internal/e2ebench/README.md). It builds each workload's stack in-process,
// drives it through the gateway, verifies every response, and prints one
// line per metric followed by one JSON result line per workload:
//
//	go run ./cmd/e2ebench --workload adhoc_join --seed 3 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
// (counter deltas around the same untraced window, then the traced pass);
// without --trace both are reported, without --workload every workload runs.
// The exit code is 0 only if every response of every workload was correct.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"prestolite/internal/e2ebench"
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: all of "+fmt.Sprint(e2ebench.Workloads)+")")
	seed := flag.Int64("seed", 1, "seed of the statement and event streams")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.String("trace", "", "0: end-to-end metrics only; 1: per-layer metrics only; unset: both")
	traceOut := flag.String("trace-out", "", "write the traced pass's spans to this file as JSON")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice and compare every end-to-end metric against its bound in BENCHMARK.json")
	golden := flag.String("golden", "", "check: recompute golden.json's content and compare; write: print the recomputed content")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != "" && *trace != "0" && *trace != "1") || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(run(*workload, *seed, *seconds, *trace, *traceOut, *selfcheck, *golden))
}

func run(workload string, seed int64, seconds int, trace, traceOut string, selfcheck bool, golden string) int {
	switch golden {
	case "":
	case "check":
		if err := e2ebench.CheckGolden(); err != nil {
			return fail(err)
		}
		fmt.Println("golden.json matches the generators and the reference engine")
		return 0
	case "write":
		data, err := e2ebench.GoldenJSON()
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(data))
		return 0
	default:
		return fail(fmt.Errorf("-golden wants check or write, not %q", golden))
	}

	workloads := e2ebench.Workloads
	if workload != "" {
		workloads = []string{workload}
	}
	// The write-ahead log lives inside the working directory: the benchmark
	// reads and writes nowhere else.
	tmp, err := os.MkdirTemp(".", ".e2ebench-tmp-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)

	cfg := e2ebench.Config{
		Seed:     seed,
		Window:   time.Duration(seconds) * time.Second,
		EndToEnd: trace != "1",
		Layers:   trace != "0",
		TmpDir:   tmp,
	}
	if traceOut != "" {
		cfg.Spans = e2ebench.NewSpanRecorder()
	}
	printContext(cfg)
	if selfcheck {
		return selfCheck(cfg, workloads)
	}

	code := 0
	for _, w := range workloads {
		cfg.Workload = w
		rep, err := e2ebench.Run(cfg)
		if err != nil {
			return fail(err)
		}
		printReport(rep)
		if !rep.Correct {
			code = 1
		}
	}
	if cfg.Spans != nil {
		if err := cfg.Spans.WriteFile(traceOut); err != nil {
			return fail(err)
		}
	}
	return code
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	return 1
}

// printContext states what the numbers were taken on.
func printContext(cfg e2ebench.Config) {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "unknown" { // `go run` does not stamp the binary; ask git, if this is a work tree
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	fmt.Printf("context commit=%s go=%s nproc=%d gomaxprocs=%d clients=%d seed=%d warmup=%s window=%s\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), e2ebench.Clients(), cfg.Seed, e2ebench.Warmup(cfg.Window), cfg.Window)
}

// printReport prints one line per metric the workload measured, then the
// result line the driver reads: exactly correct, attempted, failed and
// metrics. The driver wants every listed metric of the requested set in that
// line, so there — and only there — a metric that does not apply to the
// workload appears, as 0.
func printReport(rep *e2ebench.Report) {
	metrics := map[string]e2ebench.Metric{}
	for _, set := range []struct {
		got  map[string]e2ebench.Metric
		defs []e2ebench.MetricDef
	}{{rep.EndToEnd, e2ebench.EndToEnd}, {rep.PerLayer, e2ebench.PerLayer}} {
		if set.got == nil {
			continue
		}
		for _, d := range set.defs {
			m, ok := set.got[d.Name]
			if ok {
				fmt.Printf("%s %s %.6g %s n=%d\n", rep.Workload, d.Name, m.Value, m.Unit, m.Samples)
			}
			metrics[d.Name] = e2ebench.Metric{Value: m.Value, Unit: d.Unit}
		}
	}
	for _, n := range rep.Notes {
		fmt.Printf("%s NOTE %s\n", rep.Workload, n)
	}
	for _, e := range rep.Errors {
		fmt.Printf("%s FAILED %s\n", rep.Workload, e)
	}
	line, err := json.Marshal(struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]e2ebench.Metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		panic(err) // a map of numbers and strings always marshals
	}
	fmt.Println(string(line))
}

// selfCheck runs the suite twice on this binary and compares the two sets:
// end-to-end metrics against their bounds in BENCHMARK.json, client-side
// per-layer metrics against the bounds in the package's catalogue. The
// benchmark must repeat itself before it can judge anything else.
func selfCheck(cfg e2ebench.Config, workloads []string) int {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fail(fmt.Errorf("BENCHMARK.json: %w", err))
	}
	cfg.EndToEnd, cfg.Layers = true, true
	var sets [2]map[string]*e2ebench.Report
	for i := range sets {
		sets[i] = map[string]*e2ebench.Report{}
		for _, w := range workloads {
			cfg.Workload = w
			rep, err := e2ebench.Run(cfg)
			if err != nil {
				return fail(err)
			}
			if !rep.Correct {
				printReport(rep)
				return 1
			}
			sets[i][w] = rep
		}
	}
	code := 0
	compare := func(w, name string, first, second map[string]e2ebench.Metric, bound float64) {
		a, ok := first[name]
		if !ok { // does not apply to this workload
			return
		}
		b := second[name]
		diff := math.Abs(a.Value-b.Value) / math.Min(a.Value, b.Value)
		verdict := "ok"
		if !(diff <= bound) {
			verdict, code = "DISAGREE", 1
		}
		fmt.Printf("selfcheck %s %s first=%.6g second=%.6g diff=%.4f bound=%.2f %s\n", w, name, a.Value, b.Value, diff, bound, verdict)
	}
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			compare(w, m.Name, sets[0][w].EndToEnd, sets[1][w].EndToEnd, m.Bound)
		}
		for _, d := range e2ebench.PerLayer {
			if d.Bound > 0 {
				compare(w, d.Name, sets[0][w].PerLayer, sets[1][w].PerLayer, d.Bound)
			}
		}
	}
	return code
}
