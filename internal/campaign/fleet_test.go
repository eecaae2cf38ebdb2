package campaign

import (
	"fmt"
	"testing"
)

// TestFleetNames: a fleet's member names are name#i, byte for byte as
// fmt renders them, in one group named after the fleet.
func TestFleetNames(t *testing.T) {
	for _, n := range []int{0, 1, 10, 257} {
		runs := Fleet("job", nil, n, 50)
		if len(runs) != n {
			t.Fatalf("Fleet(%d): %d runs", n, len(runs))
		}
		for i, r := range runs {
			if want := fmt.Sprintf("%s#%d", "job", i); r.Name != want || r.Group != "job" || r.Cycles != 50 {
				t.Fatalf("Fleet(%d) run %d: name %q group %q cycles %d; want name %q", n, i, r.Name, r.Group, r.Cycles, want)
			}
		}
	}
}

// TestFleetAllocs: building a fleet allocates a fixed number of
// blocks — the run slice and the names' one string — however
// many members it has.
func TestFleetAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(20, func() { Fleet("job", nil, n, 50) })
	}
	small, large := allocs(16), allocs(256)
	if large > 3 || large > small {
		t.Errorf("Fleet allocates %v blocks for 256 runs, %v for 16; want at most 3, not growing with n", large, small)
	}
}
