package cluster_test

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain bounds the suite's goroutines: detached merges, chunk
// streams, followers and health probers must all be gone once every
// test's coordinator and shards are closed.
func TestMain(m *testing.M) { leakcheck.Main(m) }
