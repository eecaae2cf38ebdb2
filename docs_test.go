package asim2

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// docSnippet is one fenced code block extracted from a markdown file.
type docSnippet struct {
	file string
	line int // 1-based line of the opening fence
	tag  string
	src  string
}

// extractSnippets pulls every fenced code block out of a markdown
// file, keyed by its info string (the text after the backticks).
func extractSnippets(t *testing.T, path string) []docSnippet {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var snips []docSnippet
	var cur *docSnippet
	var body []string
	for i, line := range strings.Split(string(data), "\n") {
		switch {
		case cur == nil && strings.HasPrefix(line, "```") && len(line) > 3:
			cur = &docSnippet{file: path, line: i + 1, tag: strings.TrimSpace(line[3:])}
			body = body[:0]
		case cur != nil && strings.HasPrefix(line, "```"):
			cur.src = strings.Join(body, "\n") + "\n"
			snips = append(snips, *cur)
			cur = nil
		case cur != nil:
			body = append(body, line)
		}
	}
	if cur != nil {
		t.Fatalf("%s:%d: unterminated code fence", path, cur.line)
	}
	return snips
}

// TestDocSnippets keeps the documentation's specification examples
// honest: every `asim` block in README.md and docs/LANGUAGE.md must
// parse AND be in asimfmt-canonical form, and every `asim-modules`
// block must parse through the module-dialect expander.
func TestDocSnippets(t *testing.T) {
	checked := 0
	for _, path := range []string{"README.md", "docs/LANGUAGE.md", "docs/OPERATIONS.md"} {
		for _, s := range extractSnippets(t, path) {
			switch s.tag {
			case "asim":
				spec, err := core.ParseString(s.file, s.src)
				if err != nil {
					t.Errorf("%s:%d: asim snippet does not parse: %v", s.file, s.line, err)
					continue
				}
				if canon := spec.AST.String(); canon != s.src {
					t.Errorf("%s:%d: asim snippet is not asimfmt-canonical.\nhave:\n%s\nwant:\n%s",
						s.file, s.line, s.src, canon)
				}
				checked++
			case "asim-modules":
				if _, err := core.ParseExtendedString(s.file, s.src); err != nil {
					t.Errorf("%s:%d: asim-modules snippet does not parse: %v", s.file, s.line, err)
				}
				checked++
			}
		}
	}
	if checked < 5 {
		t.Errorf("only %d spec snippets found across README.md, docs/LANGUAGE.md and docs/OPERATIONS.md; extraction is likely broken", checked)
	}
}

// daemonFlags returns the registered command-line surface of both
// daemons, keyed by command name, built from the same RegisterFlags
// calls package main uses — so the doc checks track the binaries by
// construction, not by a hand-maintained list.
func daemonFlags() map[string]*flag.FlagSet {
	asimd := flag.NewFlagSet("asimd", flag.ContinueOnError)
	service.RegisterFlags(asimd)
	asimcoord := flag.NewFlagSet("asimcoord", flag.ContinueOnError)
	cluster.RegisterFlags(asimcoord)
	return map[string]*flag.FlagSet{"asimd": asimd, "asimcoord": asimcoord}
}

// shCommandLines extracts every logical command line from a file's
// `sh` snippets: backslash continuations joined, comments dropped.
func shCommandLines(t *testing.T, file string) [][2]interface{} {
	t.Helper()
	var out [][2]interface{} // [line number, joined command text]
	for _, s := range extractSnippets(t, file) {
		if s.tag != "sh" {
			continue
		}
		lines := strings.Split(s.src, "\n")
		for i := 0; i < len(lines); i++ {
			n := s.line + 1 + i
			joined := lines[i]
			for strings.HasSuffix(strings.TrimRight(joined, " \t"), "\\") && i+1 < len(lines) {
				joined = strings.TrimSuffix(strings.TrimRight(joined, " \t"), "\\")
				i++
				joined += " " + lines[i]
			}
			if trimmed := strings.TrimSpace(joined); trimmed != "" && !strings.HasPrefix(trimmed, "#") {
				out = append(out, [2]interface{}{n, trimmed})
			}
		}
	}
	return out
}

// TestOperationsCommandLines keeps the documented invocations
// runnable: in every `sh` snippet of the operations doc and README,
// any command line invoking asimd or asimcoord may use only flags the
// corresponding binary actually registers.
func TestOperationsCommandLines(t *testing.T) {
	daemons := daemonFlags()
	invocations := 0
	for _, file := range []string{"docs/OPERATIONS.md", "README.md"} {
		for _, lc := range shCommandLines(t, file) {
			line, cmd := lc[0].(int), lc[1].(string)
			tokens := strings.Fields(cmd)
			fs := (*flag.FlagSet)(nil)
			start := 0
			for i, tok := range tokens {
				if d, ok := daemons[path.Base(tok)]; ok {
					fs, start = d, i+1
					break
				}
			}
			if fs == nil {
				continue
			}
			invocations++
			for _, tok := range tokens[start:] {
				if !strings.HasPrefix(tok, "-") {
					continue
				}
				name := strings.TrimLeft(tok, "-")
				if eq := strings.IndexByte(name, '='); eq >= 0 {
					name = name[:eq]
				}
				if fs.Lookup(name) == nil {
					t.Errorf("%s:%d: %s does not register flag -%s (command: %s)", file, line, fs.Name(), name, cmd)
				}
			}
		}
	}
	if invocations < 6 {
		t.Errorf("only %d asimd/asimcoord invocations found in the docs; extraction is likely broken", invocations)
	}
}

// TestOperationsFlagCoverage requires every registered asimd and
// asimcoord flag to be documented in docs/OPERATIONS.md as `-name`.
func TestOperationsFlagCoverage(t *testing.T) {
	data, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for name, fs := range daemonFlags() {
		fs.VisitAll(func(f *flag.Flag) {
			if !strings.Contains(doc, "`-"+f.Name+"`") {
				t.Errorf("docs/OPERATIONS.md does not document %s flag `-%s` (%s)", name, f.Name, f.Usage)
			}
		})
	}
}

// TestOperationsMetricsCoverage requires every JSON field either
// daemon serves at /metrics — including the shared job books embedded
// from service.JobMetrics, the coordinator's per-shard books, the
// nested histogram shapes, and the trace span fields served at
// /v1/trace — to appear in docs/OPERATIONS.md as `tag`. The walk
// recurses into embedded and nested structs (histograms and their
// buckets) so new telemetry shapes cannot ship undocumented. Every
// metric the Prometheus view exposes must also carry its HELP text in
// a help tag; the members of a labeled family after its first share
// the first's.
func TestOperationsMetricsCoverage(t *testing.T) {
	data, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	histogram := reflect.TypeOf(telemetry.HistogramSnapshot{})
	helped := map[string]bool{} // labeled families with a help tag
	var walk func(rt reflect.Type, exposed bool)
	walk = func(rt reflect.Type, exposed bool) {
		for rt.Kind() == reflect.Ptr || rt.Kind() == reflect.Slice {
			rt = rt.Elem()
		}
		if rt.Kind() != reflect.Struct {
			return
		}
		for i := 0; i < rt.NumField(); i++ {
			f := rt.Field(i)
			if f.Anonymous {
				walk(f.Type, exposed)
				continue
			}
			tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if tag == "" || tag == "-" {
				continue
			}
			if !strings.Contains(doc, "`"+tag+"`") {
				t.Errorf("docs/OPERATIONS.md glossary is missing %s.%s field `%s`", rt.Name(), f.Name, tag)
			}
			prom := f.Tag.Get("prom")
			family, _, labeled := strings.Cut(prom, ",")
			kind := f.Type.Kind()
			leaf := f.Type == histogram || kind >= reflect.Bool && kind <= reflect.Float64 // a histogram, number or bool
			switch {
			case !exposed || !leaf || prom == "-":
			case f.Tag.Get("help") != "":
				helped[family] = true
			case labeled && helped[family]:
			default:
				t.Errorf("%s.%s (`%s`) is exposed to Prometheus without a help tag", rt.Name(), f.Name, tag)
			}
			walk(f.Type, exposed && f.Type != histogram)
		}
	}
	for _, m := range []interface{}{service.Metrics{}, cluster.Metrics{}} {
		walk(reflect.TypeOf(m), true)
	}
	walk(reflect.TypeOf(telemetry.Span{}), false)
}

// TestDocsQuoteBenchSpeedups keeps the prose honest about measured
// ratios: every "~N.NNx" in README.md and DESIGN.md must name the
// BENCH_fused.json speedup it quotes — "~1.58x (`gang_speedup`)" — and
// carry that key's committed value to two decimals. A number with no
// key behind it goes stale the next time the baseline is re-measured.
func TestDocsQuoteBenchSpeedups(t *testing.T) {
	data, err := os.ReadFile("BENCH_fused.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench map[string]any
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	quote := regexp.MustCompile("~([0-9]+(?:\\.[0-9]+)?)x(?:\\s+\\(`([a-z_]+)`\\))?")
	checked := 0
	for _, file := range []string{"README.md", "DESIGN.md"} {
		doc, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range quote.FindAllStringSubmatch(string(doc), -1) {
			got, key := m[1], m[2]
			v, ok := bench[key].(float64)
			if !ok {
				t.Errorf("%s: %q quotes a ratio without naming a BENCH_fused.json speedup key after it", file, m[0])
				continue
			}
			if want := fmt.Sprintf("%.2f", v); got != want {
				t.Errorf("%s: %q, but BENCH_fused.json has %s = %s", file, m[0], key, want)
			}
			checked++
		}
	}
	if checked < 4 {
		t.Errorf("only %d quoted speedups found; extraction is likely broken", checked)
	}
}
