package core

import (
	"os"
	"testing"

	"prestolite/internal/cache"
)

// TestMain runs every test of the package with the chunk cache's checksum
// hook on: a decoded chunk that something writes after it was cached fails
// the test whose next read or eviction meets it.
func TestMain(m *testing.M) {
	cache.CheckChunks = true
	os.Exit(m.Run())
}
