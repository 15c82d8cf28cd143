// Federation: one SQL query joining three heterogeneous systems — a hive
// warehouse (columnar files on simulated HDFS), MySQL (row store) and Druid
// (real-time OLAP, dialled over its broker's HTTP API) — with no data copy
// (§IV). EXPLAIN shows each connector absorbing its pushdowns, including
// aggregation pushdown into druid.
//
//	go run ./examples/federation
package main

import (
	"fmt"
	"log"

	druidconn "prestolite/internal/connectors/druid"
	"prestolite/internal/connectors/hive"
	"prestolite/internal/connectors/mysql"
	"prestolite/internal/core"
	"prestolite/internal/druid"
	"prestolite/internal/hdfs"
	"prestolite/internal/metastore"
	"prestolite/internal/mysqlite"
	"prestolite/internal/types"
	"prestolite/internal/workload"
)

func main() {
	engine := core.New()

	// Catalog 1: hive — the trips warehouse on simulated HDFS.
	nn := hdfs.New(hdfs.Config{})
	ms := metastore.New()
	cfg := workload.TripsConfig{RowsPerDate: 2000, Dates: 2, FilesPerDate: 2, RowGroupRows: 1024, NeedleCityID: 9999}
	if _, err := workload.BuildTripsWarehouse(ms, nn, cfg); err != nil {
		log.Fatal(err)
	}
	engine.Register("hive", hive.New("hive", ms, nn, hive.Options{}))

	// Catalog 2: mysql — operational city metadata with transactions.
	db := mysqlite.New()
	if _, err := db.CreateTable("city_meta", []mysqlite.Column{
		{Name: "city_id", Type: types.Bigint},
		{Name: "tier", Type: types.Varchar},
	}, "city_id"); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		tier := "launch"
		if i%3 == 0 {
			tier = "mature"
		}
		if err := db.Insert("city_meta", []any{int64(i), tier}); err != nil {
			log.Fatal(err)
		}
	}
	engine.Register("mysql", mysql.New("mysql", "ops", db))

	// Catalog 3: druid — real-time events, behind the broker's HTTP API as a
	// Presto-Druid connector finds them: native queries go out as requests,
	// answers come back as checksummed page frames.
	store := druid.NewStore()
	if err := workload.BuildEventsTable(store, workload.EventsConfig{Rows: 20000, Segments: 2}); err != nil {
		log.Fatal(err)
	}
	broker := druid.NewServer(store)
	if err := broker.Start("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	defer broker.Close()
	engine.Register("druid", druidconn.New("druid", druid.NewHTTPClient(broker.Addr())))

	session := core.DefaultSession("hive", "rawdata")

	// Join warehouse trips with MySQL metadata: no pipelines, no copies.
	fmt.Println("-- trips per city tier (hive ⋈ mysql) --")
	res, err := engine.Query(session, `
		SELECT m.tier, count(*) AS trips, sum(t.base.fare) AS revenue
		FROM hive.rawdata.trips t
		JOIN mysql.ops.city_meta m ON t.base.city_id = m.city_id
		GROUP BY m.tier ORDER BY trips DESC`)
	if err != nil {
		log.Fatal(err)
	}
	printRows(res)

	// Sub-second store through full SQL: druid does the aggregation.
	fmt.Println("\n-- real-time clicks by country (aggregation pushed into druid) --")
	res, err = engine.Query(session, `
		SELECT country, sum(clicks) AS clicks
		FROM druid.default.events
		WHERE device = 'ios'
		GROUP BY country ORDER BY clicks DESC LIMIT 5`)
	if err != nil {
		log.Fatal(err)
	}
	printRows(res)

	fmt.Println("\n-- EXPLAIN (note aggregationPushdown + filter in the druid scan) --")
	plan, err := engine.Explain(session, `
		SELECT country, sum(clicks) FROM druid.default.events
		WHERE device = 'ios' GROUP BY country`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan)
}

func printRows(res *core.Result) {
	for _, c := range res.Columns {
		fmt.Printf("%-14s", c.Name)
	}
	fmt.Println()
	for _, row := range res.Rows() {
		for _, v := range row {
			fmt.Printf("%-14v", v)
		}
		fmt.Println()
	}
}
