package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/machines"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// The probes time calls into each layer's public functions from
// outside, on fixed inputs (or the workload's own specs where the
// metric says so). They run after the passes, single-threaded unless
// noted, and each is short: they are there to say where an end-to-end
// change came from, not to be gated.

// probeBudget is how long a throughput probe keeps its loop running,
// and floorJobs how many jobs measure the load generator's floor.
const (
	probeBudget = 150 * time.Millisecond
	floorJobs   = 2000
)

// p50us times f n times and returns the median in microseconds.
func p50us(n int, f func()) float64 {
	d := make([]float64, n)
	for i := range d {
		start := time.Now()
		f()
		d[i] = us(time.Since(start))
	}
	sort.Float64s(d)
	return quantile(d, 0.5)
}

// perCallNS runs f in a tight loop of n calls and returns the mean
// cost in nanoseconds — for calls too short to time one at a time.
func perCallNS(n int, f func()) float64 {
	start := time.Now()
	for range n {
		f()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// probeFrontEnd times the three steps every program-cache miss pays —
// parse, canonical digest, compile — over the workload's own distinct
// specs (at most 128 of them; a single-design workload repeats its
// one spec so the median has samples).
func probeFrontEnd(m metrics, jobs []*job) error {
	var srcs []string
	for _, j := range distinct(jobs) {
		if len(srcs) < 128 {
			srcs = append(srcs, j.req.Spec)
		}
	}
	for len(srcs) < 32 {
		srcs = append(srcs, srcs[0])
	}
	var parse, digest, compile []float64
	for _, src := range srcs {
		start := time.Now()
		spec, err := core.ParseString("job", src)
		parse = append(parse, us(time.Since(start)))
		if err != nil {
			return err
		}
		start = time.Now()
		_ = spec.CanonicalDigest()
		digest = append(digest, us(time.Since(start)))
		start = time.Now()
		_, err = core.Compile(spec, core.Compiled)
		compile = append(compile, us(time.Since(start)))
		if err != nil {
			return err
		}
	}
	m.set("rtl.parse_us_p50", median(parse), "us")
	m.set("core.digest_us_p50", median(digest), "us")
	m.set("core.compile_us_p50", median(compile), "us")
	return nil
}

func mustSpec(src string) *core.Spec {
	spec, err := core.ParseString("probe", src)
	if err != nil {
		panic(err) // fixed, tested machines
	}
	return spec
}

func sieveSpec() string {
	src, err := machines.SieveSpec(64)
	if err != nil {
		panic(err) // a fixed, tested program: only a bug can fail it
	}
	return src
}

func bitmixSpec() string { return machines.BitMixSpec(8, 12) }

// probeSim measures the simulators bare: the paper's Figure 5.1 axis
// (one machine, one core, three backends), the two gang kernels the
// fleet workloads resolve to, and a state snapshot.
func probeSim(m metrics, budget time.Duration) error {
	sieve := mustSpec(sieveSpec())
	for _, b := range []core.Backend{core.Interp, core.Bytecode, core.Compiled} {
		mach, err := core.NewMachine(sieve, b, core.Options{})
		if err != nil {
			return err
		}
		var cycles int64
		start := time.Now()
		for time.Since(start) < budget {
			mach.Reset()
			if err := mach.RunBatch(8000); err != nil {
				return err
			}
			cycles += mach.Cycle()
		}
		name := map[core.Backend]string{core.Interp: "interp", core.Bytecode: "bytecode", core.Compiled: "compile"}[b]
		m.set(name+".cycles_per_s", float64(cycles)/time.Since(start).Seconds(), "cycles/s")
		if b == core.Compiled {
			m.set("sim.save_state_us", p50us(200, func() { _ = mach.SaveState() }), "us")
		}
	}
	for _, g := range []struct {
		metric string
		spec   *core.Spec
		cycles int64
		bit    bool
	}{
		{"sim.gang_lane_cycles_per_s", sieve, 8000, false},
		{"sim.gang_bitplane_cycles_per_s", mustSpec(bitmixSpec()), 4000, true},
	} {
		prog, err := core.Compile(g.spec, core.Compiled)
		if err != nil {
			return err
		}
		gang, ok := prog.NewGang(64)
		if !ok || gang.BitParallel() != g.bit {
			return fmt.Errorf("%s: gang kernel is not the one the metric names", g.metric)
		}
		targets := make([]int64, 64)
		for i := range targets {
			targets[i] = g.cycles
		}
		var cycles int64
		start := time.Now()
		for time.Since(start) < budget {
			gang.Reset(targets)
			for gang.Step(4096) {
			}
			for l := range targets {
				cycles += gang.LaneCycle(l)
			}
		}
		m.set(g.metric, float64(cycles)/time.Since(start).Seconds(), "cycles/s")
	}
	return nil
}

// probeFixedCosts times the small per-job and per-line costs of the
// serving path: a program-cache hit, an engine dispatch that simulates
// nothing, one result line's encode, and one span record on a full ring.
func probeFixedCosts(m metrics) error {
	spec := mustSpec(machines.Counter())
	cache := core.NewProgramCache()
	digest := spec.CanonicalDigest()
	prog, _, err := cache.GetDigest(digest, spec, core.Compiled)
	if err != nil {
		return err
	}
	m.set("core.cache_hit_ns", perCallNS(20000, func() { _, _, _ = cache.GetDigest(digest, spec, core.Compiled) }), "ns")

	var eng campaign.Engine
	one := campaign.Fleet("job", prog, 1, 1)
	var execErr error
	m.set("campaign.dispatch_us_p50", p50us(500, func() {
		if _, err := eng.Execute(context.Background(), one); err != nil {
			execErr = err
		}
	}), "us")
	if execErr != nil {
		return execErr
	}

	results, err := eng.Execute(context.Background(), campaign.Fleet("job", prog, 256, 50))
	if err != nil {
		return err
	}
	i := 0
	m.set("service.encode_ns_per_line", perCallNS(20000, func() {
		_, _ = json.Marshal(service.ResultLine(results[i%len(results)]))
		i++
	}), "ns")

	tr := telemetry.NewTracer(service.DefaultTraceSpans)
	sp := telemetry.Span{Trace: "0123456789abcdef", Job: "j1", Name: "engine.lane-loop", Rung: "lane-loop", Runs: 32}
	for range service.DefaultTraceSpans {
		tr.Record(sp)
	}
	m.set("telemetry.record_ns", perCallNS(100000, func() { tr.Record(sp) }), "ns")
	return nil
}

// probeScrape times a Prometheus scrape of a server that has just
// served the passes.
func probeScrape(m metrics, baseURL string) error {
	var scrapeErr error
	m.set("telemetry.scrape_us", p50us(50, func() {
		resp, err := http.Get(baseURL + "/metrics?format=prometheus")
		if err != nil {
			scrapeErr = err
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}), "us")
	return scrapeErr
}

// probeDisk appends to a FileStore on the checkout's own device. It is
// the one number here that depends on the host's storage, which is why
// the gated durable_stream workload keeps its state on a memory-backed
// filesystem and this stays informational.
func probeDisk(m metrics, scratch string) error {
	dir, err := os.MkdirTemp(scratch, "disk-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs, err := durable.OpenFileStore(dir)
	if err != nil {
		return err
	}
	defer fs.Close()
	rec := durable.Record{Kind: durable.KindResult, Data: make([]byte, 96)}
	var appendErr error
	m.set("durable.disk_append_us_p50", p50us(256, func() {
		if err := fs.Append("probe", rec); err != nil {
			appendErr = err
		}
	}), "us")
	return appendErr
}

// replay runs the jobs' run lists on a bare engine — no HTTP, no
// encode, no store — in the same two-at-a-time closed loop the clients
// drive, so the mean per-job time compares one to one with the servers'
// mean handler time: the difference is the serving path. Programs are
// compiled (and fleets built) before the clock starts.
func replay(rec *recorder, jobs []*job) (execS float64, busy map[string]time.Duration, runs map[string]int, err error) {
	lists := make([][]campaign.Run, len(jobs))
	built := map[*job][]campaign.Run{}
	for i, j := range jobs {
		if built[j] == nil {
			spec, err := core.ParseString("job", j.req.Spec)
			if err != nil {
				return 0, nil, nil, err
			}
			prog, err := core.Compile(spec, core.Compiled)
			if err != nil {
				return 0, nil, nil, err
			}
			built[j] = campaign.Fleet("job", prog, j.req.Runs, j.req.Cycles)
		}
		lists[i] = built[j]
	}

	// The engine the daemon would build, planner and all, so that what
	// is left of the served job's time is the serving path's alone. The
	// list is run through once untimed first: the servers' planner had a
	// profile by the time of their traced pass, and so must this one.
	cfg, err := asimdConfig()
	if err != nil {
		return 0, nil, nil, err
	}
	var mu sync.Mutex
	busy, runs = map[string]time.Duration{}, map[string]int{}
	var total time.Duration
	var firstErr error
	sweep := func(eng campaign.Engine, timed bool) {
		next := 0
		var wg sync.WaitGroup
		for range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					mu.Lock()
					i := next
					next++
					mu.Unlock()
					if i >= len(lists) {
						return
					}
					var execErr error
					exec := func() {
						_, execErr = eng.ExecuteStream(context.Background(), lists[i], func(campaign.Result) {})
					}
					var d time.Duration
					if timed {
						d = rec.timed("campaign.exec", exec)
					} else {
						exec()
					}
					mu.Lock()
					total += d
					if execErr != nil && firstErr == nil {
						firstErr = execErr
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	eng := cfg.Engine
	sweep(eng, false)
	eng.Observe = func(_ context.Context, d campaign.Dispatch) {
		mu.Lock()
		busy[d.Rung] += d.Dur
		runs[d.Rung] += d.Runs
		mu.Unlock()
	}
	runtime.GC()
	sweep(eng, true)
	return total.Seconds(), busy, runs, firstErr
}

// stubStream is the canned response the load generator's own floor is
// measured against: a header, 256 run lines and a trailer, each line
// flushed on its own the way the servers flush theirs.
type stubStream struct {
	header, trailer []byte
	lines           [][]byte
}

func (s *stubStream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body)
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	for _, l := range append(append([][]byte{s.header}, s.lines...), s.trailer) {
		_, _ = w.Write(l)
		_ = rc.Flush()
	}
}

// newStub renders the counter-stream job's correct response once, from
// the same bare engine the oracle trusts, and returns the handler and
// the job to post at it, its oracle filled from the rendered lines.
func newStub() (*stubStream, *job, error) {
	jobs, err := counterStream("stub", topoSingle, 1, "").requests(nil, 1)
	if err != nil {
		return nil, nil, err
	}
	j := jobs[0]
	prog, err := core.Compile(mustSpec(j.req.Spec), core.Interp)
	if err != nil {
		return nil, nil, err
	}
	results, err := campaign.Engine{}.Execute(context.Background(), campaign.Fleet("job", prog, j.req.Runs, j.req.Cycles))
	if err != nil {
		return nil, nil, err
	}
	nl := func(v any) []byte {
		data, err := json.Marshal(v)
		if err != nil {
			panic(err) // plain structs of numbers and strings
		}
		return append(data, '\n')
	}
	s := &stubStream{
		header:  nl(service.JobHeader{Job: "stub", Runs: j.req.Runs}),
		trailer: nl(service.JobTrailer{Done: true, Summary: campaign.Summarize(results, 0)}),
	}
	for _, res := range results {
		line := nl(service.ResultLine(res))
		s.lines = append(s.lines, line)
		j.lineSum += maphash.Bytes(lineSeed, line[:len(line)-1])
		j.cycles += res.Stats.Cycles
	}
	return s, j, nil
}

// probeLoadgen measures the harness itself: the same clients against
// the stub. Its jobs/s is the ceiling no served workload can exceed
// and belongs next to line_stream's; its allocations per job are what
// the load generator adds to the servers' garbage collector (the
// stub's own few writes included, so it is an upper bound).
func probeLoadgen(m metrics, n int) error {
	stub, j, err := newStub()
	if err != nil {
		return err
	}
	st := &stack{}
	defer st.close()
	url, err := st.listen(stub)
	if err != nil {
		return err
	}
	cs := newClients(url)
	defer closeClients(cs)
	jobs := make([]*job, n)
	for i := range jobs {
		jobs[i] = j
	}
	if r := runPass(cs, jobs[:min(64, n)], nil, nil); r.failed > 0 {
		return fmt.Errorf("loadgen floor: %v", r.firstErr)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := runPass(cs, jobs, nil, nil)
	runtime.ReadMemStats(&after)
	if r.failed > 0 {
		return fmt.Errorf("loadgen floor: %v", r.firstErr)
	}
	m.set("loadgen.floor_jobs_per_s", float64(len(jobs))/r.wall.Seconds(), "jobs/s")
	m.set("loadgen.allocs_per_job", float64(after.Mallocs-before.Mallocs)/float64(len(jobs)), "allocs/job")
	return nil
}

func newClients(url string) []*client {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(url)
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}
