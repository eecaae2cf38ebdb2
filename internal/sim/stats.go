package sim

import (
	"fmt"
	"strings"
)

// MemOpStats counts the operations one memory performed.
type MemOpStats struct {
	Reads   int64
	Writes  int64
	Inputs  int64
	Outputs int64
}

// Total returns the number of operations of any kind.
func (s MemOpStats) Total() int64 { return s.Reads + s.Writes + s.Inputs + s.Outputs }

// Stats aggregates a run's execution statistics — the "statistics
// about the actual simulation, such as execution cycles required,
// memory accesses" the thesis' §1.4 calls invaluable.
type Stats struct {
	Cycles int64
	MemOps []MemOpStats // indexed by memory ordinal (Layout.Mems)
}

// MemReads sums read operations across all memories.
func (s Stats) MemReads() int64 {
	var n int64
	for _, m := range s.MemOps {
		n += m.Reads
	}
	return n
}

// MemWrites sums write operations across all memories.
func (s Stats) MemWrites() int64 {
	var n int64
	for _, m := range s.MemOps {
		n += m.Writes
	}
	return n
}

// Report renders a human-readable statistics summary. names must be
// the memory names in ordinal order (Layout.Mems).
func (s Stats) Report(names []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles: %d\n", s.Cycles)
	for i, m := range s.MemOps {
		name := fmt.Sprintf("mem%d", i)
		if i < len(names) {
			name = names[i]
		}
		fmt.Fprintf(&b, "%-12s reads %8d  writes %8d  inputs %6d  outputs %6d\n",
			name, m.Reads, m.Writes, m.Inputs, m.Outputs)
	}
	return b.String()
}
