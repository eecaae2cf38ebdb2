package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/campaign"
)

// benchmarkJSON is the whole contract file, as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// tiny shrinks a workload to test size: a handful of jobs of a few
// hundred cycles, in a run a twentieth as long (so the probes' loops
// shrink too). Run counts stay, because they decide the rung.
func tiny(w workload) (workload, options) {
	const shrink = 20
	w.cycles = min(w.cycles, 200)
	w.golden = ""
	w.jobsPerPass = 2 * shrink
	if w.unique {
		w.jobsPerPass = 12 * shrink
	}
	// Seed 7 is held out: nothing was calibrated or recorded with it.
	// No cold set-up processes: the test binary is not the command.
	return w, options{seed: 7, seconds: defaultSeconds / shrink}
}

// TestSmoke runs every workload end to end at tiny sizes and checks
// the emitted result against BENCHMARK.json: every end-to-end metric
// with its unit on every workload, no failed job under the oracle, and
// each fleet workload on the rung its name says.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table has %d", len(b.Workloads), len(workloads()))
	}
	for i, w := range workloads() {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q, the table's is %q (names and whys must match)", i, b.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			w, o := tiny(w)
			o.outDir = t.TempDir()
			rep, err := run(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
			}
			if len(rep.Metrics) != len(b.EndToEnd) {
				t.Errorf("%d metrics emitted, BENCHMARK.json lists %d end-to-end", len(rep.Metrics), len(b.EndToEnd))
			}
			for _, e := range b.EndToEnd {
				m, ok := rep.Metrics[e.Name]
				if !ok || m.Unit != e.Unit {
					t.Errorf("metric %s: emitted %+v (present=%v), want unit %q", e.Name, m, ok, e.Unit)
				}
				if m.Value <= 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("metric %s = %v: end-to-end metrics are never 0", e.Name, m.Value)
				}
			}
			// The daemon's planner picks the gang width, and a gang's
			// remainder of one run goes scalar: the named rung must carry
			// nearly all runs, and no other gang kernel any.
			if want := map[string]string{"fleet_lane": campaign.RungLaneLoop, "fleet_bitplane": campaign.RungBitParallel}[w.name]; want != "" {
				var total int64
				for _, n := range rep.Rungs {
					total += n
				}
				if other := total - rep.Rungs[want] - rep.Rungs[campaign.RungScalar]; other != 0 || rep.Rungs[want]*10 < total*9 {
					t.Errorf("%s dispatched %v; it must stay on %s (gang remainders on scalar aside)", w.name, rep.Rungs, want)
				}
			}
		})
	}
}

// TestTracedRun drives the two topologies that have wrappers of their
// own through a traced run and checks that every per-layer metric
// BENCHMARK.json lists comes out, and that the layers show up where
// the workload says they should.
func TestTracedRun(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, name := range []string{"durable_stream", "coord_stream"} {
		t.Run(name, func(t *testing.T) {
			w, _ := findWorkload(name)
			w, o := tiny(w)
			o.trace, o.outDir = true, t.TempDir()
			rep, err := run(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("correct=%v failed=%d: %v", rep.Correct, rep.Failed, rep.Errors)
			}
			if len(rep.Metrics) != len(b.PerLayer) {
				t.Errorf("%d metrics emitted, BENCHMARK.json lists %d per-layer", len(rep.Metrics), len(b.PerLayer))
			}
			for _, p := range b.PerLayer {
				if m, ok := rep.Metrics[p.Name]; !ok || m.Unit != p.Unit {
					t.Errorf("metric %s: emitted %+v (present=%v), want unit %q", p.Name, m, ok, p.Unit)
				}
			}
			v := func(n string) float64 { return rep.Metrics[n].Value }
			switch name {
			case "durable_stream":
				// Admit, one result and one checkpoint per run, done.
				if got, want := v("durable.appends_per_job"), float64(2*w.runs+2); got != want {
					t.Errorf("durable.appends_per_job = %v, want %v", got, want)
				}
				if v("durable.busy_share") <= 0 || v("cluster.chunks_per_job") != 0 {
					t.Errorf("durable.busy_share = %v, cluster.chunks_per_job = %v", v("durable.busy_share"), v("cluster.chunks_per_job"))
				}
			case "coord_stream":
				if got, want := v("cluster.chunks_per_job"), math.Ceil(float64(w.runs)/64); got != want {
					t.Errorf("cluster.chunks_per_job = %v, want %v", got, want)
				}
				if v("durable.appends_per_job") != 0 || v("cluster.vs_single_ratio") <= 0 {
					t.Errorf("durable.appends_per_job = %v, cluster.vs_single_ratio = %v", v("durable.appends_per_job"), v("cluster.vs_single_ratio"))
				}
			}
			if fi, err := os.Stat(rep.TraceFile); err != nil || fi.Size() == 0 {
				t.Errorf("trace file %s: %v", rep.TraceFile, err)
			}
		})
	}
}

// TestContractLimits holds BENCHMARK.json to the limits a driver
// refuses a benchmark over before a single run.
func TestContractLimits(t *testing.T) {
	b := readBenchmarkJSON(t)
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, jobsPerPass is calibrated to %d", b.RunSeconds, defaultSeconds)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for _, w := range b.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, e := range b.EndToEnd {
		check(e.Name)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", e.Name, e.Bound)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, p := range b.PerLayer {
		check(p.Name)
	}
}

// TestSeedDrivesInputs: two seeds generate different unique_specs
// bodies but the same amount of work — jobs, runs and cycle budgets —
// and one seed generates the same inputs twice. (TestSmoke is the
// held-out seed passing the oracle.)
func TestSeedDrivesInputs(t *testing.T) {
	w, _ := findWorkload("unique_specs")
	gen := func(seed int64) []*job {
		jobs, err := w.requests(rand.New(rand.NewSource(seed)), 32)
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	a, again, b := gen(1), gen(1), gen(2)
	same := 0
	for i := range a {
		if string(a[i].body) != string(again[i].body) {
			t.Fatalf("job %d: one seed gave two different bodies", i)
		}
		if string(a[i].body) == string(b[i].body) {
			same++
		}
		if a[i].req.Runs != b[i].req.Runs || a[i].req.Cycles != b[i].req.Cycles {
			t.Errorf("job %d: seeds changed the work: %d x %d vs %d x %d", i, a[i].req.Runs, a[i].req.Cycles, b[i].req.Runs, b[i].req.Cycles)
		}
	}
	if same > 0 {
		t.Errorf("%d of %d bodies are identical under seeds 1 and 2", same, len(a))
	}
}

// TestLoadgenAllocs pins what one job costs the process in
// allocations when the server side is the stub: the load generator
// shares a garbage collector with the servers under test, and a client
// that allocates per line or per request (a 1 MiB scanner buffer did
// this) makes their numbers bimodal. net/http's own request and
// response bookkeeping is the floor; the stub's few writes ride along.
func TestLoadgenAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations break the pin")
	}
	stub, j, err := newStub()
	if err != nil {
		t.Fatal(err)
	}
	st := &stack{}
	defer st.close()
	url, err := st.listen(stub)
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(url)
	defer c.close()
	allocs := testing.AllocsPerRun(50, func() {
		if o := c.post(j, 0); o.err != nil {
			t.Fatal(o.err)
		}
	})
	if allocs > 130 {
		t.Errorf("one job through the quiet client costs %.0f allocations, pinned at 130", allocs)
	}
}

// TestOracleRejects: the client's checks must fail a response that is
// short a line, repeats one, or reports the wrong statistics.
func TestOracleRejects(t *testing.T) {
	stub, j, err := newStub()
	if err != nil {
		t.Fatal(err)
	}
	good := stub.lines
	for name, lines := range map[string][][]byte{
		"missing line":    good[1:],
		"duplicate index": append(append([][]byte{}, good[:len(good)-1]...), good[0]),
		"wrong statistic": append(append([][]byte{}, good[1:]...), []byte(`{"index":0,"name":"job#0","group":"job","cycles":49,"mem_reads":0,"mem_writes":0,"digest":"0"}`+"\n")),
	} {
		stub.lines = lines
		st := &stack{}
		url, err := st.listen(stub)
		if err != nil {
			t.Fatal(err)
		}
		c := newClient(url)
		if o := c.post(j, 0); o.err == nil {
			t.Errorf("%s: the oracle accepted the response", name)
		}
		c.close()
		st.close()
	}
}

// TestSelfTime: a span's self time is its duration minus the union of
// its children's intervals, and an aggregate child subtracts its busy
// time.
func TestSelfTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	r := newRecorder()
	for _, sp := range []span{
		{ID: 1, Name: "job", Start: at(0), Dur: 100 * time.Millisecond},
		{ID: 2, Parent: 1, Name: "service.handle", Start: at(10), Dur: 80 * time.Millisecond},
		{ID: 3, Parent: 2, Name: "x", Start: at(20), Dur: 30 * time.Millisecond},
		{ID: 4, Parent: 2, Name: "x", Start: at(40), Dur: 20 * time.Millisecond}, // overlaps 3 by 10
		{ID: 5, Parent: 2, Name: "durable.append", Calls: 7, Start: at(12), Dur: 5 * time.Millisecond},
	} {
		r.add(sp)
	}
	self := map[int64]int64{}
	for _, sp := range r.finish() {
		self[sp.ID] = sp.SelfUS
	}
	for id, want := range map[int64]int64{1: 20000, 2: 80000 - 40000 - 5000, 3: 30000} {
		if self[id] != want {
			t.Errorf("span %d: self %d us, want %d", id, self[id], want)
		}
	}
}

// TestIQRShare checks the spread against Python's
// statistics.quantiles(v, n=4), which the benchmark's acceptance uses:
// for 1..10 the quartiles are 2.75 and 8.25 and the median 5.5.
func TestIQRShare(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := iqrShare(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}
