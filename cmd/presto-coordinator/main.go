// Command presto-coordinator starts a cluster coordinator with a demo
// warehouse (simulated HDFS + metastore + hive catalog, plus a druid
// catalog):
//
//	presto-coordinator -listen 127.0.0.1:8080
//
// Workers join via presto-worker -coordinator <addr>. Query with:
//
//	presto-cli -server 127.0.0.1:8080 -catalog hive -schema rawdata
package main

import (
	"flag"
	"fmt"
	"os"

	"prestolite/internal/cluster"
	"prestolite/internal/resource"
	"prestolite/internal/workload"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8080", "listen address")
	memoryLimit := flag.Int64("memory-limit", 0, "process-wide memory pool in bytes (0 = unlimited, still accounted)")
	spillDir := flag.String("spill-dir", "", "enable spill-to-disk under this directory")
	spillBudget := flag.Int64("spill-budget", 0, "disk cap for live spill runs in bytes (0 = unlimited)")
	oomKill := flag.Bool("oom-kill", false, "kill the largest query when the shared pool is exhausted")
	maxConcurrency := flag.Int("max-concurrency", 0, "admission: concurrent queries in the default group (0 = no admission control)")
	maxQueued := flag.Int("max-queued", 0, "admission: queued queries before 429 rejections")
	perQueryMemory := flag.Int64("query-max-memory", 0, "default per-query memory cap in bytes (0 = uncapped)")
	flag.Parse()

	catalogs, err := workload.DemoCatalogs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "presto-coordinator:", err)
		os.Exit(1)
	}
	coord := cluster.NewCoordinator(catalogs)
	cfg := cluster.ResourceConfig{
		MemoryLimit: *memoryLimit,
		SpillDir:    *spillDir,
		SpillBudget: *spillBudget,
		OOMKill:     *oomKill,
	}
	if *maxConcurrency > 0 {
		cfg.Groups = []resource.GroupConfig{{
			Name:           "default",
			MaxConcurrency: *maxConcurrency,
			MaxQueued:      *maxQueued,
			PerQueryMemory: *perQueryMemory,
		}}
	}
	if err := coord.ConfigureResources(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "presto-coordinator:", err)
		os.Exit(1)
	}
	if err := coord.Start(*listen); err != nil {
		fmt.Fprintln(os.Stderr, "presto-coordinator:", err)
		os.Exit(1)
	}
	fmt.Printf("coordinator listening on %s (catalogs: hive, druid)\n", coord.Addr())
	fmt.Println("workers join with: presto-worker -coordinator", coord.Addr())
	select {}
}
