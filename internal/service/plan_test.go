package service

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/machines"
)

// BadRequest is one request the planner must refuse, with a fragment
// its error must carry ("" for any).
type BadRequest struct {
	Name string
	Req  JobRequest
	Want string
}

// BadRequests is the one table of planner refusals: the unit test
// below, the HTTP-level TestServiceBadJobs and FuzzPlanRequest's seed
// corpus all draw on it (asimcoord answers from the same planner, so
// its suite only proves the wiring). The limits the table assumes are
// BadRequestLimits, on a server that is not a shard.
var BadRequests = []BadRequest{
	{"empty", JobRequest{}, "spec or a scenario"},
	{"both", JobRequest{Spec: machines.Counter(), Scenario: "sieve-fleet"}, "not both"},
	{"parse error", JobRequest{Spec: "# broken\nnot a spec"}, "spec:"},
	{"unknown scenario", JobRequest{Scenario: "no-such-scenario"}, "unknown scenario"},
	{"over run cap", JobRequest{Spec: machines.Counter(), Runs: 5}, "caps jobs at 4"},
	{"over cycle cap", JobRequest{Spec: machines.Counter(), Cycles: 2000}, "caps runs at 1000"},
	{"bad backend", JobRequest{Spec: machines.Counter(), Backend: "no-such-backend"}, "unknown backend"},
	// Negative size and seed must be rejected before they reach scenario
	// Build (a negative size would flow into spec generation and array
	// sizing).
	{"negative runs", JobRequest{Spec: machines.Counter(), Runs: -1}, "non-negative"},
	{"negative size", JobRequest{Spec: machines.Counter(), Size: -1}, "non-negative"},
	{"negative seed", JobRequest{Spec: machines.Counter(), Seed: -1}, "non-negative"},
	{"negative scenario size", JobRequest{Scenario: "does-not-matter", Size: -4096}, "non-negative"},
	// Scenario limits must reject on the *requested* parameters, before
	// Build could materialize two billion runs or a gigascale generated
	// spec (OOM, not a 400, if checked after).
	{"scenario runs", JobRequest{Scenario: "sieve-fleet", Runs: 2_000_000_000}, "caps jobs"},
	{"scenario cycles", JobRequest{Scenario: "sieve-fleet", Cycles: 1 << 40}, "caps runs"},
	{"scenario size", JobRequest{Scenario: "sieve-fleet", Size: 1 << 30}, "caps scenario size"},
	{"scenario backend", JobRequest{Scenario: "sieve-fleet", Backend: "no-such-backend"}, "unknown backend"},
	// The shard protocol is a coordinator's to send.
	{"shard-only chunk", JobRequest{Spec: machines.Counter(), Runs: 2, Chunk: &ChunkRequest{Pick: []int{0}}}, "shard protocol"},
	{"shard-only stream", JobRequest{Spec: machines.Counter(), Runs: 2, StreamCheckpoints: true}, "shard protocol"},
	{"shard-only warm", JobRequest{Spec: machines.Counter(), Runs: 2, Warm: []WarmEntry{{Run: 0, Cycle: 1}}}, "shard protocol"},
}

// BadRequestLimits are the limits BadRequests is written against.
var BadRequestLimits = Limits{MaxRuns: 4, MaxCycles: 1000}

func TestPlanBadRequests(t *testing.T) {
	for _, bad := range BadRequests {
		_, err := BadRequestLimits.Plan("j1", bad.Req, false)
		if err == nil || !strings.Contains(err.Error(), bad.Want) {
			t.Errorf("%s: error %v, want one containing %q", bad.Name, err, bad.Want)
		}
	}
	if p, err := BadRequestLimits.Plan("j1", JobRequest{Spec: machines.Counter(), Runs: 4}, false); err != nil || p.Header.Runs != 4 || p.Key != p.Header.SpecDigest {
		t.Errorf("good request: plan %+v, error %v", p, err)
	}
}

// FuzzPlanRequest drives the one request path both daemons share —
// JSON bytes through the strict decoder into the planner, then through
// Server.newJob's finishing (compile, fleet, partition) — as a plain
// server and as a shard. Nothing may panic, and every accepted request
// must yield exactly the runs its header announces.
func FuzzPlanRequest(f *testing.F) {
	for _, bad := range BadRequests {
		seed, err := json.Marshal(bad.Req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	for _, good := range []string{
		`{"scenario":"sieve-fleet","runs":3,"cycles":50}`,
		`{"spec":` + string(mustMarshal(f, machines.Counter())) + `,"runs":4,"cycles":16,"chunk":{"pick":[1,2]}}`,
		`{"spec":` + string(mustMarshal(f, machines.Counter())) + `,"runs":4,"chunk":{"pick":[0,3]},"warm":[{"run":3,"cycle":1,"state":"AAAA"}]}`,
		`{"spec":"x","unknown_field":1}`,
		`{"resume":{"job":"j1","delivered":2}}`,
	} {
		f.Add([]byte(good))
	}
	// Tight caps keep each execution cheap: planning builds scenarios
	// and compiles specs, it never runs them.
	lim := Limits{MaxRuns: 16, MaxCycles: 1000}
	servers := []*Server{
		New(Config{Limits: lim}),
		New(Config{Limits: lim, ShardMode: true}),
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeJob(bytes.NewReader(body))
		if err != nil {
			return
		}
		for _, s := range servers {
			p, err := lim.Plan("f1", req, s.cfg.ShardMode)
			j, jerr := s.newJob("f1", req, new(jobScratch))
			if err != nil {
				if jerr == nil {
					t.Fatalf("planner refused (%v) what newJob accepted", err)
				}
				continue
			}
			if p.Header.Runs <= 0 || p.Key == "" {
				t.Fatalf("accepted plan without runs or route key: %+v", p)
			}
			if jerr != nil {
				continue // compile or partition refused it: still a clean 400
			}
			if j.header.Runs != len(j.runs) {
				t.Fatalf("header announces %d runs, job holds %d", j.header.Runs, len(j.runs))
			}
			if req.Chunk == nil && j.header.Runs != p.Header.Runs {
				t.Fatalf("plan sized the job at %d runs, newJob built %d", p.Header.Runs, j.header.Runs)
			}
		}
	})
}

func mustMarshal(f *testing.F, v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		f.Fatal(err)
	}
	return data
}
