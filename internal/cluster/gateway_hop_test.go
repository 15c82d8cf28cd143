package cluster_test

import (
	"testing"

	"prestolite/internal/cluster"
	"prestolite/internal/gateway"
)

func init() {
	cluster.StartGateway = func(t *testing.T, coordinator string) string {
		t.Helper()
		gw, err := gateway.New()
		if err != nil {
			t.Fatal(err)
		}
		if err := gw.AddCluster("c", coordinator); err != nil {
			t.Fatal(err)
		}
		if err := gw.SetRoute("default", "c"); err != nil {
			t.Fatal(err)
		}
		if err := gw.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { gw.Close() })
		return gw.Addr()
	}
}
