package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math/rand"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/machines"
	"repro/internal/service"
	"repro/internal/specgen"
)

// topology names which servers a workload's traffic passes through.
type topology int

const (
	topoSingle  topology = iota // one asimd
	topoDurable                 // one asimd over a durable.FileStore
	topoCoord                   // asimcoord in front of two asimd -shard workers
)

// workload is one named traffic mix: timedPasses passes of jobsPerPass
// jobs, each job runs copies of one design for cycles cycles.
// jobsPerPass is the fixed work of one timed pass at defaultSeconds,
// calibrated once at the commit that introduced the benchmark so a pass
// takes a third of the run there (3.3 s); it is frozen so later commits
// run identical work.
type workload struct {
	name        string
	why         string
	topo        topology
	jobsPerPass int
	// design returns one job's specification. unique asks for a fresh
	// one per job from the seeded rng; otherwise one design is repeated.
	design func(rng *rand.Rand) string
	unique bool
	runs   int
	cycles int64
	// golden is linesDigest at defaultSeed: the simulated statistics of
	// the workload's first goldenJobs distinct jobs, which no change to
	// the simulators may alter.
	golden string
}

// goldenJobs bounds how many distinct jobs linesDigest covers, so the
// digest does not depend on the pass size.
const goldenJobs = 64

// job is one pre-built POST /v1/jobs request plus what a correct
// response must contain.
type job struct {
	req  service.JobRequest
	body []byte // req marshalled once, before any clock starts

	// The oracle's expectation, from a bare campaign.Engine on the
	// independent interp backend (see expect).
	lineSum uint64 // order-independent hash of the expected run lines
	cycles  int64  // expected trailer Summary.Cycles
}

// requests generates the n jobs of one pass.
func (w workload) requests(rng *rand.Rand, n int) ([]*job, error) {
	jobs := make([]*job, n)
	for i := range jobs {
		if i > 0 && !w.unique {
			jobs[i] = jobs[0]
			continue
		}
		req := service.JobRequest{Spec: w.design(rng), Backend: string(core.Compiled), Runs: w.runs, Cycles: w.cycles}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		jobs[i] = &job{req: req, body: body}
	}
	return jobs, nil
}

func fixed(src string) func(*rand.Rand) string { return func(*rand.Rand) string { return src } }

// counterStream is the traffic the three same-traffic workloads share:
// 256 runs of 50 cycles, so the engine does almost nothing and line
// encode, write and flush and per-job HTTP, admission and cache-hit
// cost are what is left. At 200 cycles the bare engine was still more
// than half of the served job.
func counterStream(name string, topo topology, jobsPerPass int, why string) workload {
	return workload{
		name: name, topo: topo, jobsPerPass: jobsPerPass, why: why,
		design: fixed(machines.Counter()), runs: 256, cycles: 50,
		golden: "2e01c21718e98b993803cce1f9ff0b7b164d3bd7fc5d4329f27e605be4381fc9",
	}
}

func workloads() []workload {
	return []workload{
		{
			name: "fleet_lane", topo: topoSingle, jobsPerPass: 63,
			why:    "engine-bound sieve fleet on the lane-loop gang rung; HTTP, encode and cache do almost nothing, so a kernel or IR change must move or hold it",
			design: fixed(sieveSpec()), runs: 64, cycles: 8000,
			golden: "abed0cc929461b1303b6b7752edc11f5d09586eb0b445095d7194c24cfd42095",
		},
		{
			// 128 runs give each of the two engine workers a full
			// 64-lane plane word; 64 would leave the planes half empty.
			name: "fleet_bitplane", topo: topoSingle, jobsPerPass: 26,
			why:    "same layers used differently: a 1-bit fabric that resolves to the bit-parallel rung, so a lane-loop win that costs the bit-plane path shows",
			design: fixed(bitmixSpec()), runs: 128, cycles: 4000,
			golden: "f3a922b9782c974533ac28c77c5a0c51b1847247a28d4fc6771f4ec28e756255",
		},
		counterStream("line_stream", topoSingle, 2950,
			"256 short runs per job: per-line encode, write and flush and per-job HTTP, admission and cache hit dominate; bypass for kernel changes, base of the two ratios"),
		counterStream("durable_stream", topoDurable, 1950,
			"line_stream's traffic with persist-then-write on every line (writes beside reads), so durable_stream / line_stream is durable on / off"),
		counterStream("coord_stream", topoCoord, 490,
			"line_stream's traffic through asimcoord and two shards: plan, dispatch and merge do the work, so coord_stream / line_stream is coordinator / single node"),
		{
			name: "unique_specs", topo: topoSingle, jobsPerPass: 6600,
			why:    "a fresh generated design per job: every job misses the program cache and the working set exceeds it, so parse, compile and digest dominate; bypass for kernel and line-path changes",
			design: func(rng *rand.Rand) string { return specgen.Generate(rng, specgen.Config{Combs: 40, Mems: 6}) },
			unique: true, runs: 1, cycles: 100,
			golden: "2806fb9e7d0a8636bdec5a7bfe846d402caeae750cc431ee01f1553bbc1e2db9",
		},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// distinct returns each job once, in first-appearance order.
func distinct(jobs []*job) []*job {
	var out []*job
	seen := map[*job]bool{}
	for _, j := range jobs {
		if !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	}
	return out
}

// lineSeed keys the order-independent line hash. It is per-process:
// expected and observed sums are only ever compared within one process.
var lineSeed = maphash.MakeSeed()

// expect fills every distinct job's oracle fields from a bare
// campaign.Engine.Execute on the interp backend — an implementation
// that shares no kernel with the compiled backend the servers run —
// and returns linesDigest: SHA-256 over the index-ordered cycles,
// mem_reads, mem_writes and digest of the first goldenJobs distinct
// jobs. A simulator speed-up must leave all of these identical.
func expect(jobs []*job) (linesDigest string, err error) {
	distinct := distinct(jobs)
	golden := sha256.New()
	// Batches bound how many interp programs are alive at once, so the
	// oracle does not set the process's peak memory.
	const batch = 256
	for lo := 0; lo < len(distinct); lo += batch {
		part := distinct[lo:min(lo+batch, len(distinct))]
		var runs []campaign.Run
		for _, j := range part {
			spec, err := core.ParseString("job", j.req.Spec)
			if err != nil {
				return "", fmt.Errorf("oracle: %v", err)
			}
			prog, err := core.Compile(spec, core.Interp)
			if err != nil {
				return "", fmt.Errorf("oracle: %v", err)
			}
			runs = append(runs, campaign.Fleet("job", prog, j.req.Runs, j.req.Cycles)...)
		}
		results, err := campaign.Engine{}.Execute(context.Background(), runs)
		if err != nil {
			return "", fmt.Errorf("oracle: %v", err)
		}
		at := 0
		for k, j := range part {
			j.lineSum, j.cycles = 0, 0
			for i, res := range results[at : at+j.req.Runs] {
				if res.Err != nil {
					return "", fmt.Errorf("oracle: run %d fails on interp: %v", i, res.Err)
				}
				res.Index = i
				line := service.ResultLine(res)
				data, err := json.Marshal(line)
				if err != nil {
					return "", err
				}
				j.lineSum += maphash.Bytes(lineSeed, data)
				j.cycles += res.Stats.Cycles
				if lo+k < goldenJobs {
					fmt.Fprintf(golden, "%d %d %d %s\n", line.Cycles, line.MemReads, line.MemWrites, line.Digest)
				}
			}
			at += j.req.Runs
		}
	}
	return hex.EncodeToString(golden.Sum(nil)), nil
}
