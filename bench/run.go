package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

const (
	defaultSeed    = 1
	defaultSeconds = 10 // BENCHMARK.json's run_seconds: jobsPerPass is calibrated to it
	// timedPasses passes of a third of run_seconds each: the most that
	// fits the time a run may take with no pass shorter than 3 s.
	timedPasses = 3
	// coldSetups fresh processes each set up once; setup_s is the median.
	coldSetups = 3
	// warmShare is the warm-up pass's size as a share of a timed pass:
	// large enough that every cache and pool has settled and the gang
	// planner has a profile, small enough that the cold set-ups fit in
	// a run.
	warmShare = 6
	// uniqueDesigns is how many distinct designs a unique workload
	// cycles through: more than the program cache holds (4096), so a
	// design is evicted before its turn comes round again and every job
	// stays a miss however many passes a run makes.
	uniqueDesigns = 7000
)

// load is a run's generated jobs and how they are dealt out: the
// warm-up pass takes the first few of the cyclic list and pass k the
// k-th perPass after those, so every pass is the same amount of work
// and none repeats a job the cache could still hold from the pass
// before.
type load struct {
	jobs    []*job
	perPass int
}

// window returns n jobs starting at job off, wrapping round.
func (l load) window(off, n int) []*job {
	out := make([]*job, n)
	for i := range out {
		out[i] = l.jobs[(off+i)%len(l.jobs)]
	}
	return out
}

func (l load) warm() []*job      { return l.window(0, warmJobs(l.perPass)) }
func (l load) pass(k int) []*job { return l.window(warmJobs(l.perPass)+k*l.perPass, l.perPass) }

func warmJobs(perPass int) int { return max(clients, perPass/warmShare) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// options size one run of one workload.
type options struct {
	seed int64
	// seconds scales every fixed amount of work — jobs per pass, probe
	// loops — from what it is at defaultSeconds.
	seconds float64
	trace   bool
	// setups is how many child processes measure a cold set-up. Tests,
	// whose binary is not this command, ask for none; setup_s is then
	// the run's own set-up.
	setups int
	outDir string // where state, the disk probe and the trace file go
}

func (o options) scale() float64 { return o.seconds / defaultSeconds }

// jobsPerPass is the workload's calibrated pass size scaled to the run.
func (o options) jobsPerPass(w workload) int {
	return max(clients, int(math.Round(float64(w.jobsPerPass)*o.scale())))
}

// report is what one run of one workload found. The last line the
// command prints is its result field; the rest is the run's record.
type report struct {
	Workload    string       `json:"workload"`
	Seed        int64        `json:"seed"`
	Gomaxprocs  int          `json:"gomaxprocs"`
	Clients     int          `json:"clients"`
	JobsPerPass int          `json:"jobs_per_pass"`
	Passes      []passRecord `json:"timed_passes,omitempty"`
	Setups      []float64    `json:"setup_s_samples,omitempty"`
	StateFS     string       `json:"state_fs,omitempty"` // filesystem under the durable store
	LinesDigest string       `json:"lines_digest"`
	TraceFile   string       `json:"trace_file,omitempty"`
	Rungs       rungs        `json:"rung_runs"` // what the servers' own books say they dispatched
	Errors      []string     `json:"errors,omitempty"`
	result
}

// passRecord is one timed pass as the wall clock saw it, before the
// stolen share of it is taken out.
type passRecord struct {
	WallS    float64 `json:"wall_s"`
	Granted  float64 `json:"cpu_granted"` // share of the CPU time asked for that the host granted
	JobsPerS float64 `json:"wall_jobs_per_s"`
}

// result is the benchmark contract's output object.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// rungs is runs dispatched per rung of the engine's ladder.
type rungs map[string]int64

func (st *stack) rungs() rungs {
	r := rungs{}
	for _, s := range st.asimds {
		m := s.Metrics()
		r[campaign.RungAOT] += m.RunsAOT
		r[campaign.RungBitParallel] += m.RunsBitParallel
		r[campaign.RungLaneLoop] += m.RunsLaneLoop
		r[campaign.RungScalar] += m.RunsScalar
	}
	return r
}

// cacheCounts sums the program-cache counters of every asimd.
func (st *stack) cacheCounts() (hits, misses, flushes int64) {
	for _, s := range st.asimds {
		c := s.Cache()
		hits, misses, flushes = hits+c.Hits(), misses+c.Misses(), flushes+c.Flushes()
	}
	return hits, misses, flushes
}

func (rep *report) fail(format string, args ...any) {
	rep.Correct = false
	if len(rep.Errors) < 8 {
		rep.Errors = append(rep.Errors, fmt.Sprintf(format, args...))
	}
}

// count books one pass's jobs and failures.
func (rep *report) count(what string, r passResult) {
	rep.Attempted += len(r.outcomes)
	rep.Failed += r.failed
	if r.failed > 0 {
		rep.fail("%s: %d of %d jobs failed, first: %v", what, r.failed, len(r.outcomes), r.firstErr)
	}
}

// inputs generates n jobs from the seed, fills their oracle and
// shuffles the order the clients will take them in. The servers see
// nothing of the seed but these inputs.
func inputs(w workload, seed int64, n int) (jobs []*job, linesDigest string, err error) {
	rng := rand.New(rand.NewSource(seed))
	if jobs, err = w.requests(rng, n); err != nil {
		return nil, "", err
	}
	if linesDigest, err = expect(jobs); err != nil {
		return nil, "", err
	}
	rng.Shuffle(len(jobs), func(i, k int) { jobs[i], jobs[k] = jobs[k], jobs[i] })
	return jobs, linesDigest, nil
}

// run measures one workload once. With o.trace unset it reports the
// end-to-end metrics, with no wrapper anywhere near the servers; set,
// it reports the per-layer metrics from a traced pass and the probes.
func run(w workload, o options) (*report, error) {
	rep := &report{
		Workload: w.name, Seed: o.seed, Gomaxprocs: runtime.GOMAXPROCS(0), Clients: clients,
		JobsPerPass: o.jobsPerPass(w),
		result:      result{Correct: true, Metrics: metrics{}},
	}
	n := rep.JobsPerPass
	if w.unique {
		n = max(n, min(uniqueDesigns, warmJobs(n)+n*timedPasses))
	}
	jobs, digest, err := inputs(w, o.seed, n)
	if err != nil {
		return nil, err
	}
	ld := load{jobs: jobs, perPass: rep.JobsPerPass}
	rep.LinesDigest = digest
	// A repeated design is the same at every seed; generated ones are
	// recorded at the default seed.
	if w.golden != "" && digest != w.golden && (!w.unique || (o.seed == defaultSeed && n >= goldenJobs)) {
		rep.fail("lines_digest %s differs from the recorded %s: a simulated statistic changed", digest, w.golden)
	}
	root, fsName, err := stateRoot(o.outDir)
	if err != nil {
		return nil, err
	}
	if w.topo == topoDurable {
		rep.StateFS = fsName
	}
	if o.trace {
		err = runTraced(w, o, ld, root, rep)
	} else {
		err = runTimed(w, o, ld, root, rep)
	}
	if err != nil {
		return nil, err
	}
	if rep.Failed > 0 {
		rep.Correct = false
	}
	return rep, nil
}

// setUp builds the workload's servers and clients and runs the
// warm-up pass: first compile, cache fill, machine and gang pools,
// planner profile and connection set-up all happen here, before any
// timed pass. seconds is how long it took with the host's stolen time
// taken out.
func setUp(w workload, sm seams, root string, ld load, rep *report) (st *stack, cs []*client, seconds float64, err error) {
	mark := markHost()
	if st, err = buildStack(w.topo, sm, root); err != nil {
		return nil, nil, 0, err
	}
	cs = newClients(st.url)
	rep.count("warm-up pass", runPass(cs, ld.warm(), nil, nil))
	wall, granted := mark.since()
	return st, cs, wall.Seconds() * granted, nil
}

// coldSetup is what a child process of a timed run does (-cold-setup):
// generate just the warm-up pass's jobs, set up once in a process that
// has served nothing yet, and print how long that took.
func coldSetup(w workload, o options) error {
	per := o.jobsPerPass(w)
	jobs, _, err := inputs(w, o.seed, warmJobs(per))
	if err != nil {
		return err
	}
	root, _, err := stateRoot(o.outDir)
	if err != nil {
		return err
	}
	rep := &report{result: result{Correct: true}}
	runtime.GC()
	st, cs, seconds, err := setUp(w, seams{}, root, load{jobs: jobs, perPass: per}, rep)
	if err != nil {
		return err
	}
	closeClients(cs)
	st.close()
	if !rep.Correct {
		return fmt.Errorf("cold set-up: %s", strings.Join(rep.Errors, "; "))
	}
	fmt.Println(strconv.FormatFloat(seconds, 'g', -1, 64))
	return nil
}

// measureColdSetups runs coldSetup in o.setups fresh processes, one after the
// other, and returns their times.
func measureColdSetups(w workload, o options) ([]float64, error) {
	var out []float64
	for range o.setups {
		stdout, err := selfCommand(w.name, o, "-cold-setup").Output()
		if err != nil {
			return nil, fmt.Errorf("cold set-up process: %v", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(stdout)), 64)
		if err != nil {
			return nil, fmt.Errorf("cold set-up process printed %q", stdout)
		}
		out = append(out, v)
	}
	return out, nil
}

func runTimed(w workload, o options, ld load, root string, rep *report) error {
	var err error
	if rep.Setups, err = measureColdSetups(w, o); err != nil {
		return err
	}
	// Input generation and the oracle are over: from here on the
	// process's peak memory is the servers' and the load generator's.
	resetPeakRSS()
	st, cs, own, err := setUp(w, seams{}, root, ld, rep)
	if err != nil {
		return err
	}
	defer st.close()
	defer closeClients(cs)
	if len(rep.Setups) == 0 {
		rep.Setups = []float64{own}
	}

	// Every figure is the median over the passes of the pass's own
	// figure with the stolen share of its wall time taken out (host.go):
	// rates divide by the share granted, latencies multiply by it.
	var rate, cycles, job []float64
	for p := range timedPasses {
		runtime.GC()
		mark := markHost()
		r := runPass(cs, ld.pass(p), nil, nil)
		_, granted := mark.since()
		rep.count(fmt.Sprintf("timed pass %d", p+1), r)
		pm := r.metrics()
		rep.Passes = append(rep.Passes, passRecord{WallS: r.wall.Seconds(), Granted: granted, JobsPerS: pm.jobsPerS})
		rate = append(rate, pm.jobsPerS/granted)
		cycles = append(cycles, pm.cyclesPerS/granted)
		job = append(job, pm.jobP50*granted)
	}
	rep.Rungs = st.rungs()
	m := rep.Metrics
	m.set("setup_s", median(rep.Setups), "s")
	m.set("jobs_per_s", median(rate), "jobs/s")
	m.set("sim_cycles_per_s", median(cycles), "cycles/s")
	m.set("job_ms_p50", median(job), "ms")
	m.set("peak_rss_mb", float64(telemetry.PeakRSSBytes())/(1<<20), "MiB")
	return nil
}

// resetPeakRSS restarts the kernel's high-water mark for this process
// (VmHWM), so peak_rss_mb covers serving and not input generation.
// Where the kernel refuses, the mark simply covers the whole process.
func resetPeakRSS() {
	runtime.GC()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func runTraced(w workload, o options, ld load, root string, rep *report) error {
	rec := newRecorder()
	st, cs, _, err := setUp(w, rec.seams(), root, ld, rep)
	if err != nil {
		return err
	}
	defer st.close()
	defer closeClients(cs)
	m := rep.Metrics

	// One untraced pass on these very servers is the traced pass's
	// reference: the difference between the two is what tracing costs.
	runtime.GC()
	base := runPass(cs, ld.pass(0), nil, nil)
	rep.count("untraced pass", base)
	jobs := ld.pass(1)

	// The traced pass. Every sampleEvery-th job also fetches the spans
	// the servers themselves recorded for it (GET /v1/trace/{id}) while
	// they are still on the ring.
	hits0, misses0, flushes0 := st.cacheCounts()
	ids := make([]int64, len(jobs))
	sampleEvery := max(1, len(jobs)/128)
	served := make([][]telemetry.Span, len(jobs))
	runtime.GC()
	rec.on.Store(true)
	traced := runPass(cs, jobs, rec, func(c *client, i int, id int64, out outcome) {
		ids[i] = id
		if out.err == nil && i%sampleEvery == 0 {
			served[i] = c.serverSpans(st, id)
		}
	})
	rec.on.Store(false)
	rep.count("traced pass", traced)
	rep.Rungs = st.rungs()
	hits, misses, flushes := st.cacheCounts()
	hits, misses, flushes = hits-hits0, misses-misses0, flushes-flushes0
	m.set("core.cache_miss_share", float64(misses)/float64(max(1, hits+misses)), "share")
	m.set("core.cache_flushes", float64(flushes), "count")
	m.set("trace.overhead_share", 1-traced.metrics().jobsPerS/base.metrics().jobsPerS, "share")
	// The latency tail and the time to the first line are measured but
	// not gated: across ten runs of one commit the tail spread 6-19 %,
	// and the first line up to 25 % on the fleets, where it is the first
	// of the planner's narrow gangs to retire.
	m.set("loadgen.job_ms_p90", base.metrics().jobP90, "ms")
	m.set("loadgen.first_line_ms_p50", base.metrics().firstP50, "ms")

	// The same work on a bare engine: a third of the traced jobs, at
	// most 1024.
	part := jobs[:min(1024, max(clients, len(jobs)/3))]
	execS, busy, runs, err := replay(rec, part)
	if err != nil {
		return fmt.Errorf("bare-engine replay: %v", err)
	}
	m.set("campaign.exec_s", execS, "s")
	for _, rung := range campaign.Rungs {
		m.set("campaign.rung."+rung+".busy_s", busy[rung].Seconds(), "s")
		m.set("campaign.rung."+rung+".runs", float64(runs[rung]), "count")
	}

	spans := rec.finish()
	layerMetrics(m, w, spans, ids, served, execS/float64(len(part)), rec, len(jobs))

	budget := time.Duration(float64(probeBudget) * min(1, o.scale()))
	floor := max(64, int(floorJobs*min(1, o.scale())))
	for _, probe := range []struct {
		name string
		f    func() error
	}{
		{"probe.front_end", func() error { return probeFrontEnd(m, ld.jobs) }},
		{"probe.sim", func() error { return probeSim(m, budget) }},
		{"probe.fixed_costs", func() error { return probeFixedCosts(m) }},
		{"probe.scrape", func() error { return probeScrape(m, st.urls[0]) }},
		{"probe.disk", func() error { return probeDisk(m, o.outDir) }},
		{"probe.loadgen", func() error { return probeLoadgen(m, floor) }},
	} {
		var err error
		rec.timed(probe.name, func() { err = probe.f() })
		if err != nil {
			return fmt.Errorf("%s: %v", probe.name, err)
		}
	}

	// Coordinator ÷ single node: the same jobs through one plain asimd,
	// in this process, right after the coordinator's pass.
	m.set("cluster.vs_single_ratio", 0, "ratio")
	if w.topo == topoCoord {
		single, scs, _, err := setUp(workload{topo: topoSingle}, seams{}, root, ld, rep)
		if err != nil {
			return err
		}
		runtime.GC()
		r := runPass(scs, jobs, nil, nil)
		closeClients(scs)
		single.close()
		rep.count("single-node reference pass", r)
		m.set("cluster.vs_single_ratio", base.metrics().jobsPerS/r.metrics().jobsPerS, "ratio")
	}

	rep.TraceFile = filepath.Join(o.outDir, "trace-"+w.name+".ndjson")
	return writeSpans(rep.TraceFile, rec.finish())
}

// serverSpans fetches what every asimd recorded under the job's trace
// id. A node that holds none (the other shard) answers 404.
func (c *client) serverSpans(st *stack, id int64) []telemetry.Span {
	var out []telemetry.Span
	for _, u := range st.urls {
		resp, err := c.hc.Get(u + "/v1/trace/" + traceID(id))
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusOK {
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var sp telemetry.Span
				if json.Unmarshal(sc.Bytes(), &sp) == nil {
					out = append(out, sp)
				}
			}
		}
		resp.Body.Close()
	}
	return out
}

// layerMetrics derives the per-layer figures from the traced pass's
// benchmark-side spans and the sampled server-side ones.
func layerMetrics(m metrics, w workload, spans []span, ids []int64, served [][]telemetry.Span, execPerJob float64, rec *recorder, jobsInPass int) {
	front := "service.handle"
	if w.topo == topoCoord {
		front = "cluster.handle"
	}
	byID := map[int64]*span{}
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	frontOf := map[int64]*span{} // job span id → its front handler span
	handles := map[string][][2]int64{}
	var handleMS, netMS, chunkMS, selfMS []float64
	chunks := 0
	for i := range spans {
		sp := &spans[i]
		switch sp.Name {
		case "service.handle":
			handleMS = append(handleMS, ms(sp.Dur))
			handles[sp.Job] = append(handles[sp.Job], [2]int64{sp.StartUS, sp.StartUS + sp.DurUS})
		case "cluster.chunk":
			chunks++
			chunkMS = append(chunkMS, ms(sp.Dur))
		case "cluster.handle":
			selfMS = append(selfMS, float64(sp.SelfUS)/1000)
		}
		if sp.Name == front {
			if job := byID[sp.Parent]; job != nil {
				frontOf[job.ID] = sp
				netMS = append(netMS, ms(job.Dur-sp.Dur))
			}
		}
	}
	p50 := func(v []float64) float64 { sort.Float64s(v); return quantile(v, 0.5) }
	m.set("service.handle_ms_p50", p50(handleMS), "ms")
	m.set("loadgen.net_ms_p50", p50(netMS), "ms")
	m.set("cluster.chunks_per_job", float64(chunks)/float64(jobsInPass), "count")
	m.set("cluster.chunk_ms_p50", p50(chunkMS), "ms")
	m.set("cluster.self_ms_p50", p50(selfMS), "ms")

	// Served ÷ bare: the mean front-handler time of the pass's jobs
	// against the mean bare-engine time of the replayed ones (the job
	// order is shuffled, so the replayed third is a fair sample).
	var handleTotal time.Duration
	for _, sp := range frontOf {
		handleTotal += sp.Dur
	}
	share := 0.0
	if handleTotal > 0 {
		perJob := handleTotal.Seconds() / float64(len(frontOf))
		share = (perJob - execPerJob) / perJob
	}
	m.set("service.overhead_share", share, "share")

	// The servers' own spans (PR 10), for the sampled jobs: how long
	// each phase took, and how much of the handlers' wall time no
	// server span accounts for.
	var admit, compile, engine []float64
	var covered, handled int64
	for i, ss := range served {
		if len(ss) == 0 {
			continue
		}
		var iv [][2]int64
		for _, sp := range ss {
			switch {
			case sp.Name == "admit":
				admit = append(admit, float64(sp.DurUS)/1000)
			case sp.Name == "compile":
				compile = append(compile, float64(sp.DurUS)/1000)
			case strings.HasPrefix(sp.Name, "engine."):
				engine = append(engine, float64(sp.DurUS)/1000)
			default:
				continue
			}
			iv = append(iv, [2]int64{sp.StartUS, sp.StartUS + sp.DurUS})
		}
		h := unionLen(handles[traceID(ids[i])])
		handled += h
		covered += min(h, unionLen(iv))
	}
	m.set("service.admit_ms_p50", p50(admit), "ms")
	m.set("service.compile_ms_p50", p50(compile), "ms")
	m.set("service.engine_ms_p50", p50(engine), "ms")
	gap := 0.0
	if handled > 0 {
		gap = 1 - float64(covered)/float64(handled)
	}
	m.set("service.span_gap_share", gap, "share")

	// The store wrapper's books. Without a durable store all are 0.
	var appends, bytes int64
	var busy time.Duration
	for _, sp := range spans {
		if sp.Name == "durable.append" {
			appends += int64(sp.Calls)
			bytes += sp.Bytes
			busy += sp.Dur
		}
	}
	m.set("durable.appends_per_job", float64(appends)/float64(jobsInPass), "count")
	m.set("durable.bytes_per_job", float64(bytes)/float64(jobsInPass), "bytes")
	m.set("durable.append_us_p50", p50(rec.appendD), "us")
	m.set("durable.drop_us_p50", p50(rec.dropD), "us")
	busyShare := 0.0
	if handleTotal > 0 {
		busyShare = busy.Seconds() / handleTotal.Seconds()
	}
	m.set("durable.busy_share", busyShare, "share")
}

// unionLen is the total length covered by a set of [lo, hi) intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, k int) bool { return iv[i][0] < iv[k][0] })
	var total, edge int64
	for i, v := range iv {
		lo, hi := v[0], v[1]
		if i == 0 || lo > edge {
			edge = lo
		}
		if hi > edge {
			total += hi - edge
			edge = hi
		}
	}
	return total
}
