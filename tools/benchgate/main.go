// Command benchgate is CI's benchmark-regression gate: it compares a
// fresh asimbench trajectory (BENCH_ci.json) against the committed
// baseline (BENCH_fused.json) and fails when any headline speedup has
// regressed beyond the tolerance.
//
//	benchgate -baseline BENCH_fused.json -fresh BENCH_ci.json -max-regression 0.25
//
// Only the report's speedup *ratios* are gated — pooled vs per-run
// construction, gang fleet vs pooled scalar fleet, bit-plane vs
// lane-loop gang kernels, native workers vs in-process.
// Ratios compare two configurations measured in the same process on
// the same machine, so they transfer between the committed baseline's
// hardware and whatever runner CI lands on; absolute ns/cycle numbers
// do not, and are archived for trend inspection instead of gated.
// asimbench reports the fastest of several repetitions per
// configuration, so scheduler noise (which only ever slows a run
// down) is largely rejected before the gate sees a number.
//
// A metric missing from the baseline is not gated (nothing to defend
// yet); a metric present in the baseline but missing or zero in the
// fresh report fails the gate — losing a benchmark silently is itself
// a regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
)

// report is the slice of asimbench's JSON shape the gate reads.
type report struct {
	Go                 string  `json:"go"`
	FleetBuildSpeedup  float64 `json:"fleetbuild_speedup"`
	GangSpeedup        float64 `json:"gang_speedup"`
	BitParallelSpeedup float64 `json:"bitparallel_speedup"`
	AOTSpeedup         float64 `json:"aot_speedup"`
}

// metric is one gated speedup.
type metric struct {
	name        string
	base, fresh float64
}

func metrics(baseline, fresh report) []metric {
	return []metric{
		{"fleetbuild_speedup", baseline.FleetBuildSpeedup, fresh.FleetBuildSpeedup},
		{"gang_speedup", baseline.GangSpeedup, fresh.GangSpeedup},
		{"bitparallel_speedup", baseline.BitParallelSpeedup, fresh.BitParallelSpeedup},
		{"aot_speedup", baseline.AOTSpeedup, fresh.AOTSpeedup},
	}
}

// gate returns one violation line per metric whose fresh value falls
// below baseline*(1-maxRegression). Metrics absent from the baseline
// (<= 0) are skipped; metrics absent from the fresh report fail.
func gate(baseline, fresh report, maxRegression float64) []string {
	var violations []string
	for _, m := range metrics(baseline, fresh) {
		if m.base <= 0 {
			continue
		}
		floor := m.base * (1 - maxRegression)
		if m.fresh < floor {
			violations = append(violations, fmt.Sprintf(
				"%s regressed: %.3fx is below the %.3fx floor (baseline %.3fx, tolerance %.0f%%)",
				m.name, m.fresh, floor, m.base, maxRegression*100))
		}
	}
	return violations
}

func readReport(path string) (report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return report{}, fmt.Errorf("%s: %v", path, err)
	}
	return r, nil
}

func main() {
	log.SetFlags(0)
	basePath := flag.String("baseline", "BENCH_fused.json", "committed baseline trajectory")
	freshPath := flag.String("fresh", "BENCH_ci.json", "freshly measured trajectory")
	maxRegression := flag.Float64("max-regression", 0.25, "tolerated fractional speedup loss before failing")
	flag.Parse()

	baseline, err := readReport(*basePath)
	if err != nil {
		log.Fatal(err)
	}
	fresh, err := readReport(*freshPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benchgate: baseline %s (%s) vs fresh %s (%s), tolerance %.0f%%\n",
		*basePath, baseline.Go, *freshPath, fresh.Go, *maxRegression*100)
	for _, m := range metrics(baseline, fresh) {
		if m.base <= 0 {
			fmt.Printf("  %-20s not in baseline, skipped\n", m.name)
			continue
		}
		fmt.Printf("  %-20s baseline %.3fx  fresh %.3fx  (floor %.3fx)\n",
			m.name, m.base, m.fresh, m.base*(1-*maxRegression))
	}
	if violations := gate(baseline, fresh, *maxRegression); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "benchgate: "+v)
		}
		os.Exit(1)
	}
	fmt.Println("benchgate: ok")
}
