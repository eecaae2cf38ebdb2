package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGatePassesOnEqualAndImproved(t *testing.T) {
	base := report{FleetBuildSpeedup: 1.6, GangSpeedup: 1.65}
	if v := gate(base, base, 0.25); len(v) != 0 {
		t.Errorf("identical reports violated the gate: %v", v)
	}
	better := report{FleetBuildSpeedup: 2.0, GangSpeedup: 2.5}
	if v := gate(base, better, 0.25); len(v) != 0 {
		t.Errorf("improved report violated the gate: %v", v)
	}
}

func TestGateTolerenceBoundary(t *testing.T) {
	base := report{FleetBuildSpeedup: 2.0, GangSpeedup: 2.0, AOTSpeedup: 2.0}
	// Exactly at the floor (2.0 * 0.75 = 1.5): not a violation.
	at := report{FleetBuildSpeedup: 1.5, GangSpeedup: 1.5, AOTSpeedup: 1.5}
	if v := gate(base, at, 0.25); len(v) != 0 {
		t.Errorf("at-floor report violated the gate: %v", v)
	}
	// Just below: all three violate.
	below := report{FleetBuildSpeedup: 1.49, GangSpeedup: 1.49, AOTSpeedup: 1.49}
	if v := gate(base, below, 0.25); len(v) != 3 {
		t.Errorf("below-floor report produced %d violations, want 3: %v", len(v), v)
	}
}

// TestGateFailsOnSyntheticRegression is the gate's reason to exist: a
// >25% drop in any one speedup fails, naming the metric.
func TestGateFailsOnSyntheticRegression(t *testing.T) {
	base := report{FleetBuildSpeedup: 1.6, GangSpeedup: 1.65, BitParallelSpeedup: 2.5, AOTSpeedup: 3.0}
	for _, tc := range []struct {
		name  string
		fresh report
	}{
		{"fleetbuild_speedup", report{FleetBuildSpeedup: 1.1, GangSpeedup: 1.65, BitParallelSpeedup: 2.5, AOTSpeedup: 3.0}},
		{"gang_speedup", report{FleetBuildSpeedup: 1.6, GangSpeedup: 0.8, BitParallelSpeedup: 2.5, AOTSpeedup: 3.0}},
		{"bitparallel_speedup", report{FleetBuildSpeedup: 1.6, GangSpeedup: 1.65, BitParallelSpeedup: 1.2, AOTSpeedup: 3.0}},
		{"aot_speedup", report{FleetBuildSpeedup: 1.6, GangSpeedup: 1.65, BitParallelSpeedup: 2.5, AOTSpeedup: 1.0}},
	} {
		v := gate(base, tc.fresh, 0.25)
		if len(v) != 1 {
			t.Errorf("%s: %d violations, want 1: %v", tc.name, len(v), v)
			continue
		}
		if !strings.Contains(v[0], tc.name) {
			t.Errorf("violation %q does not name %s", v[0], tc.name)
		}
	}
}

func TestGateMissingMetrics(t *testing.T) {
	// Metric absent from the baseline: skipped, nothing to defend.
	base := report{FleetBuildSpeedup: 1.6}
	fresh := report{FleetBuildSpeedup: 1.6}
	if v := gate(base, fresh, 0.25); len(v) != 0 {
		t.Errorf("baseline without gang/bit-parallel/aot metrics violated the gate: %v", v)
	}
	// Metric present in the baseline but missing from the fresh
	// report: that is a lost benchmark, and it fails.
	base = report{FleetBuildSpeedup: 1.6, GangSpeedup: 1.65}
	fresh = report{FleetBuildSpeedup: 1.6}
	if v := gate(base, fresh, 0.25); len(v) != 1 {
		t.Errorf("lost gang_speedup produced %d violations, want 1: %v", len(v), v)
	}
}

// TestCommittedBaseline reads the real committed BENCH_fused.json: it
// must parse and carry every gated metric, or the CI gate would be
// silently vacuous.
func TestCommittedBaseline(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_fused.json")
	if _, err := os.Stat(path); err != nil {
		t.Skipf("no committed baseline at %s: %v", path, err)
	}
	r, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range metrics(r, r) {
		if m.base <= 0 {
			t.Errorf("committed baseline is missing %s; the CI gate would not defend it", m.name)
		}
	}
	if r.GangSpeedup < 1.5 {
		t.Errorf("committed baseline gang_speedup = %.2fx, below the 1.5x the gang path promises", r.GangSpeedup)
	}
	if r.BitParallelSpeedup < 1.15 {
		t.Errorf("committed baseline bitparallel_speedup = %.2fx, below the 1.15x the bit-plane kernels promise", r.BitParallelSpeedup)
	}
	if r.AOTSpeedup < 1.5 {
		t.Errorf("committed baseline aot_speedup = %.2fx, below the 1.5x the native workers promise", r.AOTSpeedup)
	}
}
