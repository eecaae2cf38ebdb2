// Package parser turns ASIM II specification text into an ast.Spec.
//
// The accepted grammar follows Appendix B of the thesis:
//
//	spec     = commentline { macrodef } [ "=" number ] namelist complist
//	macrodef = "~name" text
//	namelist = { name [ "*" ] } "."
//	complist = { alu | selector | memory } "."
//	alu      = "A" name expr expr expr
//	selector = "S" name expr expr { expr }      (values until next "A"/"S"/"M"/".")
//	memory   = "M" name expr expr expr number { number }
//
// where the trailing numbers of a memory are its cell count and, when
// the count is written negative, exactly |count| initial values.
// Anything after the final "." is ignored, as in the original.
package parser

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/rtl/ast"
	"repro/internal/rtl/numlit"
	"repro/internal/rtl/source"
	"repro/internal/rtl/token"
)

// Parse reads a complete specification from r.
func Parse(file string, r io.Reader) (*ast.Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %v", file, err)
	}
	return ParseString(file, string(data))
}

// ParseString parses a complete specification held in src.
func ParseString(file, src string) (*ast.Spec, error) {
	p := &parser{s: token.NewScanner(file, src), spec: &ast.Spec{File: file}}
	if err := p.parse(); err != nil {
		return nil, err
	}
	return p.spec, nil
}

type parser struct {
	s    *token.Scanner
	spec *ast.Spec
	tok  token.Token // current token
	eof  bool
}

func (p *parser) errorf(pos source.Pos, format string, args ...interface{}) error {
	return source.Errorf(p.s.File(), pos, format, args...)
}

// next advances to the next (macro-expanded) token.
func (p *parser) next() error {
	t, err := p.s.Next()
	if err == io.EOF {
		p.eof = true
		p.tok = token.Token{Pos: p.s.Pos()}
		return nil
	}
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// nextRaw advances without macro expansion (for macro-definition names).
func (p *parser) nextRaw() error {
	t, err := p.s.NextRaw()
	if err == io.EOF {
		p.eof = true
		p.tok = token.Token{Pos: p.s.Pos()}
		return nil
	}
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) parse() error {
	line := p.s.ReadFirstLine()
	if !strings.HasPrefix(line, "#") {
		return p.errorf(source.Pos{Line: 1, Col: 1}, "comment required: first line must begin with '#'")
	}
	p.spec.Comment = strings.TrimPrefix(line, "#")

	// Header section: macro definitions and the optional cycle count,
	// in any order, until the first name-list token.
	if err := p.nextRaw(); err != nil {
		return err
	}
	for !p.eof {
		switch {
		case strings.HasPrefix(p.tok.Text, "~"):
			if err := p.macroDef(); err != nil {
				return err
			}
		case p.tok.Text == "=":
			if err := p.cycleCount(); err != nil {
				return err
			}
		default:
			// The lookahead was read raw; expand it before handing it
			// to the name list.
			text, err := p.s.ExpandText(p.tok.Text, p.tok.Pos)
			if err != nil {
				return err
			}
			p.tok.Text = text
			goto names
		}
	}
names:
	if err := p.nameList(); err != nil {
		return err
	}
	if err := p.components(); err != nil {
		return err
	}
	return nil
}

// macroDef parses one "~name text" definition. The current token is
// the raw "~name"; the body is read with expansion enabled so that a
// macro may use previously defined macros (but not itself).
func (p *parser) macroDef() error {
	pos := p.tok.Pos
	name := strings.TrimPrefix(p.tok.Text, "~")
	if err := token.CheckName(name); err != nil {
		return p.errorf(pos, "macro definition: %v", err)
	}
	if err := p.next(); err != nil { // body, expanded
		return err
	}
	if p.eof {
		return p.errorf(pos, "macro <%s> has no replacement text", name)
	}
	body := p.tok.Text
	p.s.DefineMacro(name, body)
	p.spec.Macros = append(p.spec.Macros, ast.Macro{Name: name, Text: body, Pos: pos})
	return p.nextRaw()
}

// cycleCount parses "= number".
func (p *parser) cycleCount() error {
	pos := p.tok.Pos
	if err := p.next(); err != nil {
		return err
	}
	if p.eof {
		return p.errorf(pos, "'=' must be followed by a cycle count")
	}
	n, err := numlit.Parse(p.tok.Text)
	if err != nil {
		return p.errorf(p.tok.Pos, "cycle count: %v", err)
	}
	p.spec.Cycles = n
	p.spec.HasCycles = true
	return p.nextRaw()
}

// nameList parses the declared-name list terminated by ".". The
// current token is the first name.
func (p *parser) nameList() error {
	if p.eof {
		return p.errorf(p.s.Pos(), "unexpected end of input in name list")
	}
	// Re-expand the lookahead token, which was read raw by the header
	// loop; names themselves may be macro-generated.
	for !p.eof && !p.tok.IsEnd() {
		nm := p.tok.Text
		decl := ast.NameDecl{Name: nm, Pos: p.tok.Pos}
		if strings.HasSuffix(nm, "*") {
			decl.Name = strings.TrimSuffix(nm, "*")
			decl.Trace = true
		}
		if err := token.CheckName(decl.Name); err != nil {
			return p.errorf(p.tok.Pos, "name list: %v", err)
		}
		p.spec.Names = append(p.spec.Names, decl)
		if err := p.next(); err != nil {
			return err
		}
	}
	if p.eof {
		return p.errorf(p.s.Pos(), "name list not terminated by '.'")
	}
	return p.next() // consume '.'
}

// components parses component definitions until the terminating ".".
func (p *parser) components() error {
	for !p.eof && !p.tok.IsEnd() {
		if !p.tok.IsComponentLetter() {
			return p.errorf(p.tok.Pos, "component expected, got <%s> instead%s", p.tok.Text, p.lastComponentHint())
		}
		kind := p.tok.Text
		pos := p.tok.Pos
		if err := p.next(); err != nil {
			return err
		}
		name, err := p.componentName()
		if err != nil {
			return err
		}
		switch kind {
		case "A":
			err = p.alu(name, pos)
		case "S":
			err = p.selector(name, pos)
		case "M":
			err = p.memory(name, pos)
		}
		if err != nil {
			return err
		}
	}
	if p.eof {
		return p.errorf(p.s.Pos(), "component list not terminated by '.'")
	}
	return nil
}

// lastComponentHint reproduces the original's "Last component read is
// <x>" aid for locating malformed components.
func (p *parser) lastComponentHint() string {
	if n := len(p.spec.Components); n > 0 {
		return fmt.Sprintf(" (last component read is <%s>)", p.spec.Components[n-1].CompName())
	}
	return ""
}

func (p *parser) componentName() (string, error) {
	if p.eof {
		return "", p.errorf(p.s.Pos(), "component name expected, got end of input")
	}
	name := p.tok.Text
	if err := token.CheckName(name); err != nil {
		return "", p.errorf(p.tok.Pos, "%v", err)
	}
	return name, nil
}

// operand reads one expression operand token.
func (p *parser) operand(what, comp string) (ast.Expr, error) {
	if err := p.next(); err != nil {
		return ast.Expr{}, err
	}
	if p.eof {
		return ast.Expr{}, p.errorf(p.s.Pos(), "component <%s>: %s expected, got end of input", comp, what)
	}
	if p.tok.IsEnd() {
		return ast.Expr{}, p.errorf(p.tok.Pos, "component <%s>: %s missing", comp, what)
	}
	e, err := ParseExpr(p.tok.Text)
	if err != nil {
		return ast.Expr{}, p.errorf(p.tok.Pos, "component <%s> %s: %v", comp, what, err)
	}
	e.Pos = p.tok.Pos
	return *e, nil
}

func (p *parser) alu(name string, pos source.Pos) error {
	a := &ast.ALU{Name: name, Pos: pos}
	var err error
	if a.Funct, err = p.operand("function", name); err != nil {
		return err
	}
	if a.Left, err = p.operand("left operand", name); err != nil {
		return err
	}
	if a.Right, err = p.operand("right operand", name); err != nil {
		return err
	}
	p.spec.Components = append(p.spec.Components, a)
	return p.next()
}

func (p *parser) selector(name string, pos source.Pos) error {
	s := &ast.Selector{Name: name, Pos: pos}
	var err error
	if s.Select, err = p.operand("select expression", name); err != nil {
		return err
	}
	// Values continue until a bare component letter or the final ".".
	for {
		if err := p.next(); err != nil {
			return err
		}
		if p.eof {
			return p.errorf(p.s.Pos(), "component <%s>: selector value list not terminated", name)
		}
		if p.tok.IsComponentLetter() || p.tok.IsEnd() {
			break
		}
		e, err := ParseExpr(p.tok.Text)
		if err != nil {
			return p.errorf(p.tok.Pos, "component <%s> value %d: %v", name, len(s.Cases), err)
		}
		e.Pos = p.tok.Pos
		s.Cases = append(s.Cases, *e)
	}
	if len(s.Cases) == 0 {
		return p.errorf(pos, "component <%s>: selector needs at least one value", name)
	}
	p.spec.Components = append(p.spec.Components, s)
	return nil
}

func (p *parser) memory(name string, pos source.Pos) error {
	m := &ast.Memory{Name: name, Pos: pos}
	var err error
	if m.Addr, err = p.operand("address", name); err != nil {
		return err
	}
	if m.Data, err = p.operand("data", name); err != nil {
		return err
	}
	if m.Opn, err = p.operand("operation", name); err != nil {
		return err
	}
	if err := p.next(); err != nil {
		return err
	}
	if p.eof {
		return p.errorf(p.s.Pos(), "component <%s>: cell count expected, got end of input", name)
	}
	countTok := p.tok
	text := countTok.Text
	negative := strings.HasPrefix(text, "-")
	if negative {
		text = text[1:]
	}
	n, err := numlit.Parse(text)
	if err != nil {
		return p.errorf(countTok.Pos, "component <%s> cell count: %v", name, err)
	}
	if n <= 0 {
		return p.errorf(countTok.Pos, "component <%s>: cell count must be nonzero", name)
	}
	m.Size = int(n)
	if negative {
		// Init grows as the values arrive: a declared count alone, which
		// the values may never back, allocates nothing.
		for i := 0; i < m.Size; i++ {
			if err := p.next(); err != nil {
				return err
			}
			if p.eof || p.tok.IsEnd() || p.tok.IsComponentLetter() {
				return p.errorf(p.s.Pos(), "component <%s>: %d initial values required, got %d", name, m.Size, i)
			}
			v, err := numlit.Parse(p.tok.Text)
			if err != nil {
				return p.errorf(p.tok.Pos, "component <%s> initial value %d: %v", name, i, err)
			}
			m.Init = append(m.Init, v)
		}
	}
	p.spec.Components = append(p.spec.Components, m)
	return p.next()
}

// ParseExpr parses a single expression token (a comma-separated
// concatenation) such as "mem.3.4,#01,count.1" or "128+3+^8".
func ParseExpr(s string) (*ast.Expr, error) {
	if s == "" {
		return nil, fmt.Errorf("empty expression")
	}
	e := &ast.Expr{}
	for _, field := range strings.Split(s, ",") {
		part, err := parsePart(field)
		if err != nil {
			return nil, fmt.Errorf("malformed expression %q: %v", s, err)
		}
		e.Parts = append(e.Parts, part)
	}
	// The original's "Too many bits" check: scanning right to left,
	// width-bounded parts accumulate bits and unbounded parts set the
	// running total to 31; exceeding 31 is a compile-time error. The
	// practical consequence is that only the leftmost part of a
	// concatenation may have unbounded width.
	bits := 0
	for i := len(e.Parts) - 1; i >= 0; i-- {
		if w := e.Parts[i].Width(); w == ast.WidthUnbounded {
			bits = ast.WidthUnbounded
		} else {
			bits += w
		}
		if bits > ast.WidthUnbounded {
			return nil, fmt.Errorf("too many bits in %q", s)
		}
	}
	return e, nil
}

func parsePart(s string) (ast.Part, error) {
	if s == "" {
		return nil, fmt.Errorf("empty concatenation element")
	}
	switch c := s[0]; {
	case c == '#':
		digits := s[1:]
		if digits == "" {
			return nil, fmt.Errorf("'#' must be followed by binary digits")
		}
		for i := 0; i < len(digits); i++ {
			if digits[i] != '0' && digits[i] != '1' {
				return nil, fmt.Errorf("bit string %q contains non-binary digit", s)
			}
		}
		return &ast.Bits{Digits: digits}, nil

	case numlit.StartsNumber(c):
		// Optional ".width" suffix. The literal itself never contains
		// a '.', so the first '.' starts the width.
		lit, width := s, ""
		if i := strings.IndexByte(s, '.'); i >= 0 {
			lit, width = s[:i], s[i+1:]
		}
		v, err := numlit.Parse(lit)
		if err != nil {
			return nil, err
		}
		n := &ast.Num{Text: lit, Value: v}
		if width != "" {
			w, err := numlit.Parse(width)
			if err != nil {
				return nil, fmt.Errorf("width of %q: %v", s, err)
			}
			if w < 1 || w > ast.WidthUnbounded {
				return nil, fmt.Errorf("width of %q out of range 1..%d", s, ast.WidthUnbounded)
			}
			n.HasWidth = true
			n.WidthLim = int(w)
		} else if strings.Contains(s, ".") {
			return nil, fmt.Errorf("missing width after '.' in %q", s)
		}
		return n, nil

	case numlit.IsLetter(c):
		fields := strings.Split(s, ".")
		name := fields[0]
		if err := token.CheckName(name); err != nil {
			return nil, err
		}
		r := &ast.Ref{Name: name, Mode: ast.RefWhole}
		parseBit := func(f string) (int, error) {
			v, err := numlit.Parse(f)
			if err != nil {
				return 0, fmt.Errorf("subfield of %q: %v", s, err)
			}
			if v < 0 || v > ast.WidthUnbounded {
				return 0, fmt.Errorf("bit index %d of %q out of range 0..%d", v, s, ast.WidthUnbounded)
			}
			return int(v), nil
		}
		switch len(fields) {
		case 1:
		case 2:
			b, err := parseBit(fields[1])
			if err != nil {
				return nil, err
			}
			r.Mode, r.From = ast.RefBit, b
		case 3:
			f, err := parseBit(fields[1])
			if err != nil {
				return nil, err
			}
			t, err := parseBit(fields[2])
			if err != nil {
				return nil, err
			}
			if t < f {
				return nil, fmt.Errorf("subfield %q: high bit %d below low bit %d", s, t, f)
			}
			r.Mode, r.From, r.To = ast.RefRange, f, t
		default:
			return nil, fmt.Errorf("too many subfields in %q", s)
		}
		return r, nil

	default:
		return nil, fmt.Errorf("unexpected character %q", string(s[0]))
	}
}
