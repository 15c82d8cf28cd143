// Command presto-worker starts a worker, mounts the same demo catalogs as
// the coordinator, and announces itself:
//
//	presto-worker -coordinator 127.0.0.1:8080
//
// Graceful shrink (§IX): send SIGINT (Ctrl-C) or POST /v1/shutdown; the
// worker enters SHUTTING_DOWN, drains active tasks over two grace periods,
// then exits with no query failures.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"time"

	"prestolite/internal/cluster"
	"prestolite/internal/workload"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "listen address")
	coordinator := flag.String("coordinator", "", "coordinator address to announce to")
	grace := flag.Duration("grace-period", 2*time.Minute, "shutdown.grace-period")
	memoryLimit := flag.Int64("memory-limit", 0, "process-wide memory pool in bytes (0 = unlimited, still accounted)")
	spillDir := flag.String("spill-dir", "", "enable spill-to-disk under this directory")
	spillBudget := flag.Int64("spill-budget", 0, "disk cap for live spill runs in bytes (0 = unlimited)")
	taskConcurrency := flag.Int("task-concurrency", 0, "driver pipelines per task (0 = one per CPU core); the task_concurrency session property overrides it")
	flag.Parse()

	catalogs, err := workload.DemoCatalogs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "presto-worker:", err)
		os.Exit(1)
	}
	w := cluster.NewWorker(catalogs)
	w.GracePeriod = *grace
	w.MemoryLimit = *memoryLimit
	w.SpillDir = *spillDir
	w.SpillBudget = *spillBudget
	w.TaskConcurrency = *taskConcurrency
	if err := w.Start(*listen); err != nil {
		fmt.Fprintln(os.Stderr, "presto-worker:", err)
		os.Exit(1)
	}
	fmt.Printf("worker listening on %s\n", w.Addr())
	if *coordinator != "" {
		resp, err := http.Get("http://" + *coordinator + "/v1/announce?addr=" + w.Addr())
		if err != nil || resp.StatusCode != http.StatusOK {
			fmt.Fprintf(os.Stderr, "presto-worker: announce to %s failed: %v\n", *coordinator, err)
			os.Exit(1)
		}
		_ = resp.Body.Close() // announce responses carry no body; status already checked
		fmt.Printf("announced to coordinator %s\n", *coordinator)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("entering SHUTTING_DOWN (graceful shrink)")
	go w.GracefulShutdown()
	w.WaitShutdown()
	fmt.Println("worker drained, exiting")
}
