// Cluster federation (§VIII): two presto clusters behind a gateway that
// routes by user/group from a MySQL table, then a zero-downtime drain of the
// dedicated cluster for "maintenance".
//
//	go run ./examples/federation_gateway
package main

import (
	"fmt"
	"log"
	"time"

	"prestolite/internal/block"
	"prestolite/internal/cluster"
	"prestolite/internal/connector"
	"prestolite/internal/connectors/memory"
	"prestolite/internal/gateway"
	"prestolite/internal/types"
)

func startCluster(marker string) (*cluster.Coordinator, func()) {
	mem := memory.New("memory")
	if err := mem.CreateTable("meta", "whoami", []connector.Column{
		{Name: "cluster", Type: types.Varchar},
	}, []*block.Page{block.NewPage(block.FromValues(types.Varchar, marker))}); err != nil {
		log.Fatal(err)
	}
	reg := connector.NewRegistry()
	reg.Register("memory", mem)
	coord := cluster.NewCoordinator(reg)
	w := cluster.NewWorker(reg)
	w.GracePeriod = 10 * time.Millisecond
	if err := w.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	coord.AddWorker(w.Addr())
	if err := coord.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	return coord, func() { _ = coord.Close(); _ = w.Close() } // example teardown
}

func main() {
	dedicated, stop1 := startCluster("dedicated-latency-sensitive")
	defer stop1()
	shared, stop2 := startCluster("shared-big-cluster")
	defer stop2()

	gw, err := gateway.New()
	if err != nil {
		log.Fatal(err)
	}
	check(gw.AddCluster("dedicated", dedicated.Addr()))
	check(gw.AddCluster("shared", shared.Addr()))
	check(gw.SetRoute("user:pricing-bot", "dedicated"))
	check(gw.SetRoute("group:marketplace", "dedicated"))
	check(gw.SetRoute("default", "shared"))
	check(gw.Start("127.0.0.1:0"))
	defer gw.Close()
	fmt.Println("gateway on", gw.Addr(), "— routing stored in MySQL, editable live")

	ask := func(user, group string) string {
		client := cluster.NewClient(gw.Addr())
		res, err := client.QueryWithIdentity(cluster.StatementRequest{
			Query: "SELECT cluster FROM whoami", Catalog: "memory", Schema: "meta", User: user,
		}, user, group)
		if err != nil {
			log.Fatal(err)
		}
		rows, _ := res.Rows() // the query just succeeded; Rows cannot fail here
		return rows[0][0].(string)
	}

	fmt.Printf("pricing-bot        -> %s\n", ask("pricing-bot", ""))
	fmt.Printf("ana (marketplace)  -> %s\n", ask("ana", "marketplace"))
	fmt.Printf("bob (etl)          -> %s\n", ask("bob", "etl"))

	fmt.Println("\nmaintenance window: draining the dedicated cluster (no downtime)")
	check(gw.SetClusterEnabled("dedicated", false))
	fmt.Printf("pricing-bot        -> %s\n", ask("pricing-bot", ""))
	check(gw.SetClusterEnabled("dedicated", true))
	fmt.Println("maintenance done")
	fmt.Printf("pricing-bot        -> %s\n", ask("pricing-bot", ""))
	fmt.Printf("\n%d redirects issued\n", gw.Redirects.Load())

	// The proxying endpoint relays the statement and its answer instead of
	// redirecting, so the gateway can replay an idempotent statement on
	// another cluster when a coordinator drains or dies mid-query.
	res, err := gateway.NewClient(gw.Addr()).Execute(cluster.StatementRequest{
		Query: "SELECT cluster FROM whoami", Catalog: "memory", Schema: "meta", User: "bob",
	}, "bob", "etl")
	check(err)
	rows, _ := res.Rows() // the query just succeeded; Rows cannot fail here
	fmt.Printf("bob via /v1/execute -> %s\n", rows[0][0])
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
