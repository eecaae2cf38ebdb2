package campaign

import (
	"fmt"
	"sort"
)

// Partition is a selected subset of a campaign's runs, prepared for
// distributed dispatch: a shard executes Runs as an ordinary campaign
// (engine indices 0..len(Runs)-1) and Remap translates each Result
// back to the run's index in the full campaign. Because building a
// campaign's run list is deterministic, every shard can rebuild the
// full list from the job request and slice its own partition out of
// it — partitioned execution plus remapping is byte-identical to
// executing the full list and picking the same indices, which is the
// invariant the cluster fabric's exactly-once merge rides on.
type Partition struct {
	// Runs is the selected subset, in ascending global-index order.
	// The Run values are copies; a caller may set per-run fields (Warm,
	// for checkpointed re-dispatch) without touching the full list.
	Runs []Run

	// Index maps engine index to global index: Index[i] is the
	// position of Runs[i] in the full campaign.
	Index []int
}

// NewPartition selects the runs of all at the given global indices.
// Pick is sorted and must be within range and free of duplicates; the
// pick slice itself is not retained. An empty pick is an error — a
// shard with nothing to execute should not be dispatched at all.
func NewPartition(all []Run, pick []int) (Partition, error) {
	if len(pick) == 0 {
		return Partition{}, fmt.Errorf("campaign: empty partition")
	}
	idx := append([]int(nil), pick...)
	sort.Ints(idx)
	runs := make([]Run, len(idx))
	for i, g := range idx {
		if g < 0 || g >= len(all) {
			return Partition{}, fmt.Errorf("campaign: partition index %d out of range [0,%d)", g, len(all))
		}
		if i > 0 && idx[i-1] == g {
			return Partition{}, fmt.Errorf("campaign: duplicate partition index %d", g)
		}
		runs[i] = all[g]
	}
	return Partition{Runs: runs, Index: idx}, nil
}

// Range builds the contiguous pick [lo, lo+n) — the shape chunked
// campaign dispatch uses.
func Range(lo, n int) []int {
	pick := make([]int, n)
	for i := range pick {
		pick[i] = lo + i
	}
	return pick
}
