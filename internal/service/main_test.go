package service_test

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain bounds the suite's goroutines: followers, background
// completions and stream handlers must all be gone once every test's
// servers are closed.
func TestMain(m *testing.M) { leakcheck.Main(m) }
