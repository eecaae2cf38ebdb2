package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// contract is the part of BENCHMARK.json the A/A check reads.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readContract() (contract, error) {
	var c contract
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return c, fmt.Errorf("%v (run from the repository root)", err)
	}
	return c, json.Unmarshal(data, &c)
}

// aaRuns is the A/A check's runs per side.
const aaRuns = 5

// runAA measures the same commit as two sides, A and B: run i of each
// side takes seed o.seed+i, so both sides see the same inputs, and the
// side that goes first alternates — the way a later change will be
// compared with its parent. Per workload and end-to-end metric it
// prints both medians, how much worse B is than A, and the spread of
// all the runs (interquartile range over median) beside the bound. Any
// worsening or spread past the bound fails: a bound the benchmark
// cannot hold against itself gates nothing.
func runAA(o options) error {
	c, err := readContract()
	if err != nil {
		return err
	}
	excess := 0
	for _, w := range workloads() {
		sides := [2]map[string][]float64{{}, {}}
		for i := range aaRuns {
			for k := range 2 {
				side := (i + k) % 2 // alternate which side runs first
				run := o
				run.seed, run.trace = o.seed+int64(i), false
				rep, err := child(w.name, run)
				if err != nil {
					return err
				}
				for name, m := range rep.Metrics {
					sides[side][name] = append(sides[side][name], m.Value)
				}
			}
		}
		fmt.Printf("\n%s (%d runs per side)\n  %-20s %14s %14s %9s %9s %7s\n", w.name, aaRuns, "metric", "median A", "median B", "B worse", "spread", "bound")
		for _, e := range c.EndToEnd {
			a, b := median(sides[0][e.Name]), median(sides[1][e.Name])
			worse := (b - a) / a
			if e.Better == "higher" {
				worse = (a - b) / a
			}
			spread := iqrShare(append(append([]float64(nil), sides[0][e.Name]...), sides[1][e.Name]...))
			flag := ""
			if worse > e.Bound || spread > e.Bound {
				flag = "  EXCEEDS"
				excess++
			}
			fmt.Printf("  %-20s %14.6g %14.6g %+8.2f%% %8.2f%% %6.0f%%%s\n", e.Name, a, b, 100*worse, 100*spread, 100*e.Bound, flag)
		}
	}
	if excess > 0 {
		return fmt.Errorf("%d workload x metric pairs exceed their bound", excess)
	}
	return nil
}

// iqrShare is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the exclusive method).
func iqrShare(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	if len(s) < 2 {
		return 0
	}
	return (q(3) - q(1)) / median(s)
}
