package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/machines"
	"repro/internal/rtl/ast"
	"repro/internal/rtl/numlit"
	"repro/internal/specgen"
)

// TestCanonicalDigest: the digest is a function of the canonical form
// alone — formatting noise and the source name normalize away, while
// any semantic difference changes it.
func TestCanonicalDigest(t *testing.T) {
	a, err := ParseString("a.sim", machines.Counter())
	if err != nil {
		t.Fatal(err)
	}
	// Re-parse the canonical form under another name: same digest.
	b, err := ParseString("b.sim", a.AST.String())
	if err != nil {
		t.Fatal(err)
	}
	if a.CanonicalDigest() != b.CanonicalDigest() {
		t.Errorf("canonical round-trip changed the digest: %s vs %s",
			a.CanonicalDigest(), b.CanonicalDigest())
	}
	if len(a.CanonicalDigest()) != 64 {
		t.Errorf("digest %q is not sha256 hex", a.CanonicalDigest())
	}
	other, err := ParseString("other", "# other\ncount* inc .\nA inc 4 count 3\nM count 0 inc.0.3 1 1\n.\n")
	if err != nil {
		t.Fatal(err)
	}
	if other.CanonicalDigest() == a.CanonicalDigest() {
		t.Error("different specs share a digest")
	}
}

// TestProgramCacheAlias: compiled-aot is an alias of compiled, not a
// backend: both names share one cache key, and the program they
// compile reports compiled and is the one that runs natively.
func TestProgramCacheAlias(t *testing.T) {
	c := NewProgramCache()
	spec, err := ParseString("counter", machines.Counter())
	if err != nil {
		t.Fatal(err)
	}
	d := spec.CanonicalDigest()
	p1, hit, err := c.GetDigest(d, spec, Compiled)
	if err != nil || hit {
		t.Fatalf("Get(compiled): hit=%v err=%v", hit, err)
	}
	p2, hit, err := c.GetDigest(d, spec, CompiledAOT)
	if err != nil || !hit || p2 != p1 {
		t.Fatalf("Get(compiled-aot) after Get(compiled): hit=%v same=%v err=%v", hit, p2 == p1, err)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d keys, want 1", c.Len())
	}
	direct, err := Compile(spec, CompiledAOT)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Backend() != Compiled || !direct.AOTCapable() || direct.AOTWorkerSource() != p1.AOTWorkerSource() {
		t.Errorf("Compile(compiled-aot) = backend %s, AOTCapable %v; want the compiled program", direct.Backend(), direct.AOTCapable())
	}
	if m := direct.NewMachine(Options{}); m.Backend() != string(Compiled) {
		t.Errorf("compiled-aot machine reports backend %q", m.Backend())
	}
	for _, b := range []Backend{Interp, CompiledNoFold, CompiledNoBitpar} {
		p, _, err := c.Get(spec, b)
		if err != nil {
			t.Fatal(err)
		}
		if p.AOTCapable() || p.AOTWorkerSource() != "" {
			t.Errorf("%s program is AOT-capable", b)
		}
	}
}

// TestProgramCache: identical content hits regardless of how the text
// was spelled; distinct backends and distinct content miss.
func TestProgramCache(t *testing.T) {
	c := NewProgramCache()
	spec, err := ParseString("counter", machines.Counter())
	if err != nil {
		t.Fatal(err)
	}
	p1, hit, err := c.Get(spec, Compiled)
	if err != nil || hit {
		t.Fatalf("first Get: hit=%v err=%v", hit, err)
	}
	// The same content arriving as a distinct parse product (another
	// source name, re-parsed canonical text) must hit and share the
	// same Program.
	respelled, err := ParseString("copy", spec.AST.String())
	if err != nil {
		t.Fatal(err)
	}
	p2, hit, err := c.Get(respelled, Compiled)
	if err != nil || !hit {
		t.Fatalf("respelled Get: hit=%v err=%v", hit, err)
	}
	if p1 != p2 {
		t.Error("cache returned distinct Programs for identical content")
	}
	if _, hit, _ := c.Get(spec, Interp); hit {
		t.Error("different backend reported a hit")
	}
	if c.Hits() != 1 || c.Misses() != 2 || c.Len() != 2 {
		t.Errorf("counters: hits=%d misses=%d len=%d, want 1/2/2", c.Hits(), c.Misses(), c.Len())
	}
	if _, _, err := c.Get(spec, Backend("no-such-backend")); err == nil {
		t.Error("bad backend: expected a compile error")
	}
	if _, hit, err := c.Get(spec, Backend("no-such-backend")); err == nil || !hit {
		t.Errorf("cached compile error: hit=%v err=%v", hit, err)
	}
}

// TestProgramCacheBounded: the cache flushes a generation instead of
// growing past its limit — distinct content is client-controllable in
// a serving deployment, so unbounded growth would be an OOM vector.
func TestProgramCacheBounded(t *testing.T) {
	c := NewProgramCache()
	spec, err := ParseString("counter", machines.Counter())
	if err != nil {
		t.Fatal(err)
	}
	// Distinct digests without distinct parses: key through GetDigest
	// directly, as the serving layer does.
	for i := 0; i < DefaultCacheEntries+10; i++ {
		if _, _, err := c.GetDigest(fmt.Sprintf("digest-%d", i), spec, Interp); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() > DefaultCacheEntries {
		t.Errorf("cache grew to %d entries past the %d bound", c.Len(), DefaultCacheEntries)
	}
	if c.Flushes() != 1 {
		t.Errorf("flushes = %d, want 1", c.Flushes())
	}
	// A re-Get of flushed content is a miss that recompiles — correct,
	// just cold.
	if _, hit, err := c.GetDigest("digest-0", spec, Interp); hit || err != nil {
		t.Errorf("post-flush Get: hit=%v err=%v", hit, err)
	}
}

// TestProgramCacheConcurrent: many goroutines Get a mix of keys from
// one cache; every caller of a key sees the same Program, and the
// miss count equals the key count (each key compiled exactly once).
// Run under -race in CI.
func TestProgramCacheConcurrent(t *testing.T) {
	c := NewProgramCache()
	specs := make([]*Spec, 4)
	for i := range specs {
		src := fmt.Sprintf("# spec %d\ncount* inc .\nA inc 4 count %d\nM count 0 inc.0.3 1 1\n.\n", i, i+1)
		s, err := ParseString(fmt.Sprintf("s%d", i), src)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = s
	}
	backends := []Backend{Interp, Compiled}
	const goroutines = 16
	got := make([][]*Program, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				for _, s := range specs {
					for _, b := range backends {
						p, _, err := c.Get(s, b)
						if err != nil {
							t.Errorf("Get: %v", err)
							return
						}
						got[g] = append(got[g], p)
					}
				}
			}
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i, p := range got[g] {
			if p != got[0][i] {
				t.Fatalf("goroutine %d saw a different Program at position %d", g, i)
			}
		}
	}
	wantKeys := int64(len(specs) * len(backends))
	if c.Misses() != wantKeys || c.Len() != int(wantKeys) {
		t.Errorf("misses=%d len=%d, want %d compiled keys", c.Misses(), c.Len(), wantKeys)
	}
}

// legacyText is the strings.Builder renderer the syntax tree had before
// ast.Spec.AppendTo, kept as the reference the append renderer (and so
// the canonical digest) must reproduce byte for byte.
func legacyText(s *ast.Spec) string {
	var b strings.Builder
	b.WriteString("#" + s.Comment + "\n")
	if s.HasCycles {
		b.WriteString("= " + numlit.FormatDecimal(s.Cycles) + "\n")
	}
	for i, n := range s.Names {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(n.Name)
		if n.Trace {
			b.WriteString("*")
		}
	}
	b.WriteString(" .\n")
	for _, c := range s.Components {
		b.WriteString(legacyComponent(c) + "\n")
	}
	b.WriteString(".\n")
	return b.String()
}

func legacyComponent(c ast.Component) string {
	switch c := c.(type) {
	case *ast.ALU:
		return "A " + c.Name + " " + legacyExpr(&c.Funct) + " " + legacyExpr(&c.Left) + " " + legacyExpr(&c.Right)
	case *ast.Selector:
		s := "S " + c.Name + " " + legacyExpr(&c.Select)
		for i := range c.Cases {
			s += " " + legacyExpr(&c.Cases[i])
		}
		return s
	case *ast.Memory:
		s := "M " + c.Name + " " + legacyExpr(&c.Addr) + " " + legacyExpr(&c.Data) + " " + legacyExpr(&c.Opn) + " "
		if c.Init == nil {
			return s + numlit.FormatDecimal(int64(c.Size))
		}
		s += "-" + numlit.FormatDecimal(int64(c.Size))
		for _, v := range c.Init {
			s += " " + numlit.FormatDecimal(v)
		}
		return s
	}
	return ""
}

func legacyExpr(e *ast.Expr) string {
	var parts []string
	for _, p := range e.Parts {
		switch p := p.(type) {
		case *ast.Num:
			s := p.Text
			if s == "" {
				s = numlit.FormatDecimal(p.Value)
			}
			if p.HasWidth {
				s += "." + numlit.FormatDecimal(int64(p.WidthLim))
			}
			parts = append(parts, s)
		case *ast.Bits:
			parts = append(parts, "#"+p.Digits)
		case *ast.Ref:
			switch p.Mode {
			case ast.RefBit:
				parts = append(parts, p.Name+"."+numlit.FormatDecimal(int64(p.From)))
			case ast.RefRange:
				parts = append(parts, p.Name+"."+numlit.FormatDecimal(int64(p.From))+"."+numlit.FormatDecimal(int64(p.To)))
			default:
				parts = append(parts, p.Name)
			}
		}
	}
	return strings.Join(parts, ",")
}

// TestCanonicalTextMatchesLegacyRenderer: String, every component's
// String and the canonical digest are byte-identical to the renderer
// they replaced, over the bundled machines and testdata files, the
// examples' designs, a module-dialect design and 256 generated ones.
func TestCanonicalTextMatchesLegacyRenderer(t *testing.T) {
	specs := map[string]*Spec{}
	add := func(name string, spec *Spec, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		specs[name] = spec
	}
	files, err := filepath.Glob("../../testdata/*.sim")
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		spec, err := ParseFile(f)
		add(f, spec, err)
	}
	tiny, err := machines.TinyComputer(machines.TinyDivideImage(47, 5))
	if err != nil {
		t.Fatal(err)
	}
	sieve, err := machines.SieveSpec(20)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{"counter": machines.Counter(), "tinycpu": tiny, "sieve": sieve, "bitmix": machines.BitMixSpec(8, 12)} {
		spec, err := ParseString(name, src)
		add(name, spec, err)
	}
	spec, err := ParseExtendedString("bcd", machines.BCDCounter(3))
	add("bcd (modules)", spec, err)
	for seed := int64(0); seed < 256; seed++ {
		cfg := specgen.Config{Combs: 40, Mems: 6}
		if seed%2 == 1 {
			cfg = specgen.Config{}
		}
		spec, err := ParseString("gen", specgen.Generate(rand.New(rand.NewSource(seed)), cfg))
		add(fmt.Sprint("specgen ", seed), spec, err)
	}
	for name, spec := range specs {
		want := legacyText(spec.AST)
		if got := spec.AST.String(); got != want {
			t.Errorf("%s: String differs from the legacy renderer:\n%s\nwant:\n%s", name, got, want)
			continue
		}
		for _, c := range spec.AST.Components {
			if got, want := c.String(), legacyComponent(c); got != want {
				t.Errorf("%s: component renders %q, legacy %q", name, got, want)
			}
		}
		if sum := sha256.Sum256([]byte(want)); spec.CanonicalDigest() != hex.EncodeToString(sum[:]) {
			t.Errorf("%s: digest is not the SHA-256 of the legacy text", name)
		}
	}
}
