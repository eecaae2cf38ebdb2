package campaign

import (
	"context"
	"reflect"
	"testing"
)

// TestPartitionEquivalence is the invariant the cluster fabric's merge
// rides on: executing a partition of a campaign's runs and re-indexing
// the results through Partition.Index is byte-identical to executing
// the full campaign and picking the same indices — for contiguous
// chunks, scattered picks, and any worker count on either side.
func TestPartitionEquivalence(t *testing.T) {
	runs := sieveFleet(t, 12, 800)
	full, err := Engine{Workers: 2, Chunk: 128}.Execute(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	for _, pick := range [][]int{Range(0, 4), Range(4, 4), Range(8, 4), {1, 5, 6, 11}, {3}} {
		p, err := NewPartition(runs, pick)
		if err != nil {
			t.Fatalf("pick %v: %v", pick, err)
		}
		part, err := Engine{Workers: 3, Chunk: 64}.Execute(context.Background(), p.Runs)
		if err != nil {
			t.Fatalf("pick %v: %v", pick, err)
		}
		for i, r := range part {
			if r.Index != i {
				t.Fatalf("pick %v: result %d carries engine index %d", pick, i, r.Index)
			}
			r.Index = p.Index[i]
			if want := full[r.Index]; !reflect.DeepEqual(r, want) {
				t.Errorf("pick %v run %d: partitioned result %+v != full result %+v", pick, r.Index, r, want)
			}
		}
	}
}

// TestPartitionValidation pins the error paths: out-of-range and
// duplicate indices and the empty pick are rejected, and the caller's
// pick slice is neither retained nor reordered.
func TestPartitionValidation(t *testing.T) {
	runs := sieveFleet(t, 4, 100)
	for _, pick := range [][]int{{}, {-1}, {4}, {0, 4}, {2, 2}, {1, 3, 1}} {
		if _, err := NewPartition(runs, pick); err == nil {
			t.Errorf("pick %v: no error", pick)
		}
	}
	pick := []int{3, 0, 2}
	p, err := NewPartition(runs, pick)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pick, []int{3, 0, 2}) {
		t.Errorf("caller's pick reordered: %v", pick)
	}
	if !reflect.DeepEqual(p.Index, []int{0, 2, 3}) {
		t.Errorf("partition index %v, want sorted [0 2 3]", p.Index)
	}
	if p.Runs[0].Name != runs[0].Name || p.Runs[2].Name != runs[3].Name {
		t.Errorf("partition runs misordered: %v", []string{p.Runs[0].Name, p.Runs[1].Name, p.Runs[2].Name})
	}
}
