// Package ast defines the abstract syntax of ASIM II specifications.
//
// A specification (Appendix B of the thesis) is a comment line, a set
// of macros, an optional cycle count, a declared-name list, and a list
// of components. Components come in exactly three kinds — ALU,
// Selector and Memory — each of whose operand fields is an expression.
//
// An expression is a comma-separated concatenation of parts; the
// leftmost part occupies the most significant bits (Figure 3.1). The
// parts are numeric literals (optionally width-limited with ".w"),
// '#' bit-strings, and component references with optional ".from" or
// ".from.to" subfields (bit 0 is the least significant bit).
package ast

import (
	"strconv"

	"repro/internal/rtl/numlit"
	"repro/internal/rtl/source"
)

// Kind identifies one of the three ASIM II primitives.
type Kind int

const (
	KindALU Kind = iota
	KindSelector
	KindMemory
)

func (k Kind) String() string {
	switch k {
	case KindALU:
		return "ALU"
	case KindSelector:
		return "selector"
	case KindMemory:
		return "memory"
	default:
		return "unknown"
	}
}

// Letter returns the component letter used in specification files.
func (k Kind) Letter() string {
	switch k {
	case KindALU:
		return "A"
	case KindSelector:
		return "S"
	case KindMemory:
		return "M"
	default:
		return "?"
	}
}

// WidthUnbounded is the width reported for parts with no declared
// width (whole component references and plain numbers). It matches the
// thesis' numberofbits, which clamps at 31.
const WidthUnbounded = numlit.MaxBits

// Part is one element of a concatenation expression.
type Part interface {
	// Width returns the number of bits this part contributes to the
	// concatenation, following the thesis' numberofbits rules.
	Width() int
	// String renders the part in specification syntax.
	String() string
	isPart()
}

// Num is a numeric literal, e.g. "3048", "%0100", "$3A", "^8" or the
// sum "128+3+^8". If HasWidth is set the literal was written "lit.w"
// and contributes exactly Width bits (the low w bits of the value).
type Num struct {
	Text     string // original literal text (without any ".w" suffix)
	Value    int64
	WidthLim int // valid when HasWidth
	HasWidth bool
}

func (n *Num) isPart() {}

func (n *Num) Width() int {
	if n.HasWidth {
		return n.WidthLim
	}
	return WidthUnbounded
}

// Masked returns the literal's value restricted to its width.
func (n *Num) Masked() int64 {
	if !n.HasWidth {
		return n.Value
	}
	if n.WidthLim >= 63 {
		return n.Value
	}
	return n.Value & (numlit.Pow2(n.WidthLim) - 1)
}

func (n *Num) String() string { return string(n.appendTo(nil)) }

func (n *Num) appendTo(b []byte) []byte {
	if n.Text != "" {
		b = append(b, n.Text...)
	} else {
		b = strconv.AppendInt(b, n.Value, 10)
	}
	if n.HasWidth {
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(n.WidthLim), 10)
	}
	return b
}

// Bits is a '#' bit-string literal; its width is exactly the number of
// binary digits written (Figure 3.1's "#01" contributes two bits).
type Bits struct {
	Digits string // binary digits only, e.g. "01"
}

func (b *Bits) isPart() {}

func (b *Bits) Width() int { return len(b.Digits) }

// Value returns the bit-string interpreted as a binary number.
func (b *Bits) Value() int64 {
	var v int64
	for i := 0; i < len(b.Digits); i++ {
		v = v*2 + int64(b.Digits[i]-'0')
	}
	return v
}

func (b *Bits) String() string { return string(b.appendTo(nil)) }

func (b *Bits) appendTo(buf []byte) []byte { return append(append(buf, '#'), b.Digits...) }

// RefMode distinguishes the three component-reference shapes.
type RefMode int

const (
	RefWhole RefMode = iota // name
	RefBit                  // name.b
	RefRange                // name.f.t
)

// Ref is a reference to another component's output. For memories the
// reference denotes the output register (the value produced by the
// previous cycle's operation), giving memories their one-cycle delay.
type Ref struct {
	Name string
	Mode RefMode
	From int // first (lowest) bit, valid for RefBit and RefRange
	To   int // last bit inclusive, valid for RefRange
}

func (r *Ref) isPart() {}

func (r *Ref) Width() int {
	switch r.Mode {
	case RefBit:
		return 1
	case RefRange:
		return r.To - r.From + 1
	default:
		return WidthUnbounded
	}
}

// LowBit returns the lowest selected bit (0 for whole references).
func (r *Ref) LowBit() int {
	if r.Mode == RefWhole {
		return 0
	}
	return r.From
}

// SelMask returns the mask of the selected bits, shifted to the bit
// positions they occupy in the referenced component (the thesis' land
// mask built from highbits).
func (r *Ref) SelMask() int64 {
	switch r.Mode {
	case RefBit:
		return numlit.Pow2(r.From)
	case RefRange:
		var m int64
		for b := r.From; b <= r.To; b++ {
			m += numlit.Pow2(b)
		}
		return m
	default:
		return -1 // all bits
	}
}

func (r *Ref) String() string { return string(r.appendTo(nil)) }

func (r *Ref) appendTo(b []byte) []byte {
	b = append(b, r.Name...)
	if r.Mode == RefBit || r.Mode == RefRange {
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(r.From), 10)
	}
	if r.Mode == RefRange {
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(r.To), 10)
	}
	return b
}

// Expr is a concatenation of parts; Parts[0] is the most significant.
// An Expr with a single part is the common case.
type Expr struct {
	Parts []Part
	Pos   source.Pos
}

func (e *Expr) String() string { return string(e.appendTo(nil)) }

// appendOperand appends e as a blank-separated operand.
func (e *Expr) appendOperand(b []byte) []byte { return e.appendTo(append(b, ' ')) }

func (e *Expr) appendTo(b []byte) []byte {
	for i, p := range e.Parts {
		if i > 0 {
			b = append(b, ',')
		}
		// A type switch, not a method on Part: the static calls let a
		// caller's buffer stay on its stack.
		switch p := p.(type) {
		case *Num:
			b = p.appendTo(b)
		case *Bits:
			b = p.appendTo(b)
		case *Ref:
			b = p.appendTo(b)
		}
	}
	return b
}

// Width returns the total concatenation width, clamped to
// WidthUnbounded as the thesis' numberofbits does.
func (e *Expr) Width() int {
	w := 0
	for _, p := range e.Parts {
		w += p.Width()
	}
	if w > WidthUnbounded {
		w = WidthUnbounded
	}
	return w
}

// ConstValue returns the expression's value if it contains no
// component references, along with true; otherwise 0, false. This is
// the basis of the compiler's constant-folding optimizations (§4.4).
func (e *Expr) ConstValue() (int64, bool) {
	var total int64
	shift := 0
	for i := len(e.Parts) - 1; i >= 0; i-- {
		switch p := e.Parts[i].(type) {
		case *Num:
			total += p.Masked() << uint(shift)
		case *Bits:
			total += p.Value() << uint(shift)
		default:
			return 0, false
		}
		// Same shift bookkeeping as the evaluators: width-bounded
		// parts accumulate, unbounded parts set the shift to 31.
		if w := e.Parts[i].Width(); w == WidthUnbounded {
			shift = WidthUnbounded
		} else {
			shift += w
		}
	}
	return total, true
}

// Refs returns the names of all components referenced by e, in
// left-to-right order, with duplicates preserved.
func (e *Expr) Refs() []string {
	var names []string
	for _, p := range e.Parts {
		if r, ok := p.(*Ref); ok {
			names = append(names, r.Name)
		}
	}
	return names
}

// Component is one declared hardware element.
type Component interface {
	// CompName returns the component's output-signal name.
	CompName() string
	// CompKind returns which primitive this is.
	CompKind() Kind
	// Operands returns every operand expression, for generic walking.
	Operands() []*Expr
	// Position returns where the component was declared.
	Position() source.Pos
	// String renders the component in specification syntax.
	String() string
}

// ALU computes dologic(Funct, Left, Right) combinationally each cycle
// (Figure 4.1). When Funct is constant the compiled backends inline
// the specific operation.
type ALU struct {
	Name  string
	Funct Expr
	Left  Expr
	Right Expr
	Pos   source.Pos
}

func (a *ALU) CompName() string     { return a.Name }
func (a *ALU) CompKind() Kind       { return KindALU }
func (a *ALU) Operands() []*Expr    { return []*Expr{&a.Funct, &a.Left, &a.Right} }
func (a *ALU) Position() source.Pos { return a.Pos }

func (a *ALU) String() string { return string(appendComponent(nil, a)) }

// Selector routes Cases[Select] to its output combinationally each
// cycle (Figure 4.2); an out-of-range select is a runtime error.
type Selector struct {
	Name   string
	Select Expr
	Cases  []Expr
	Pos    source.Pos
}

func (s *Selector) CompName() string     { return s.Name }
func (s *Selector) CompKind() Kind       { return KindSelector }
func (s *Selector) Position() source.Pos { return s.Pos }

func (s *Selector) Operands() []*Expr {
	ops := []*Expr{&s.Select}
	for i := range s.Cases {
		ops = append(ops, &s.Cases[i])
	}
	return ops
}

func (s *Selector) String() string { return string(appendComponent(nil, s)) }

// Memory is the only stateful primitive (Figure 4.3): an array of
// Size cells plus an output register. Each cycle it performs the
// operation selected by the low two bits of Opn (read / write / input
// / output); bits 2 and 3 of Opn enable write and read tracing. A
// negative size in the source declares len(Init) cells with initial
// values; Size here is always the positive cell count.
type Memory struct {
	Name string
	Addr Expr
	Data Expr
	Opn  Expr
	Size int
	Init []int64 // nil unless the declaration carried initial values
	Pos  source.Pos
}

func (m *Memory) CompName() string     { return m.Name }
func (m *Memory) CompKind() Kind       { return KindMemory }
func (m *Memory) Operands() []*Expr    { return []*Expr{&m.Addr, &m.Data, &m.Opn} }
func (m *Memory) Position() source.Pos { return m.Pos }

func (m *Memory) String() string { return string(appendComponent(nil, m)) }

// appendComponent appends a component's specification syntax to b: its
// letter, name and operands separated by blanks, and for a memory its
// size — negated when initial values follow it.
func appendComponent(b []byte, c Component) []byte {
	b = append(append(append(b, c.CompKind().Letter()...), ' '), c.CompName()...)
	switch c := c.(type) {
	case *ALU:
		b = c.Right.appendOperand(c.Left.appendOperand(c.Funct.appendOperand(b)))
	case *Selector:
		b = c.Select.appendOperand(b)
		for i := range c.Cases {
			b = c.Cases[i].appendOperand(b)
		}
	case *Memory:
		b = append(c.Opn.appendOperand(c.Data.appendOperand(c.Addr.appendOperand(b))), ' ')
		if c.Init != nil {
			b = append(b, '-')
		}
		b = strconv.AppendInt(b, int64(c.Size), 10)
		for _, v := range c.Init {
			b = strconv.AppendInt(append(b, ' '), v, 10)
		}
	}
	return b
}

// Macro is a recorded macro definition ("~name text").
type Macro struct {
	Name string // without the '~' sigil
	Text string // replacement text
	Pos  source.Pos
}

// NameDecl is one entry of the declared-name list; Trace marks names
// suffixed with '*', which are printed every cycle in list order.
type NameDecl struct {
	Name  string
	Trace bool
	Pos   source.Pos
}

// Spec is a complete parsed specification.
type Spec struct {
	File       string // input name, for diagnostics
	Comment    string // first-line comment text (without the leading '#')
	Macros     []Macro
	Cycles     int64 // default cycle count ("= n"); meaningful when HasCycles
	HasCycles  bool
	Names      []NameDecl
	Components []Component
}

// Component returns the component defining name, or nil.
func (s *Spec) Component(name string) Component {
	for _, c := range s.Components {
		if c.CompName() == name {
			return c
		}
	}
	return nil
}

// TracedNames returns the names marked '*' in declaration order.
func (s *Spec) TracedNames() []string {
	var out []string
	for _, n := range s.Names {
		if n.Trace {
			out = append(out, n.Name)
		}
	}
	return out
}

// String renders the whole specification in source syntax. Parsing the
// result yields an equivalent Spec (macros are expanded away).
func (s *Spec) String() string { return string(s.AppendTo(nil)) }

// AppendTo appends String's rendering to b and returns the extended
// slice. It is the one renderer of the syntax tree — String and every
// node's String wrap it — and the canonical digest hashes its buffer
// without building the string.
func (s *Spec) AppendTo(b []byte) []byte {
	b = append(b, '#')
	b = append(b, s.Comment...)
	b = append(b, '\n')
	if s.HasCycles {
		b = append(b, "= "...)
		b = strconv.AppendInt(b, s.Cycles, 10)
		b = append(b, '\n')
	}
	for i, n := range s.Names {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, n.Name...)
		if n.Trace {
			b = append(b, '*')
		}
	}
	b = append(b, " .\n"...)
	for _, c := range s.Components {
		b = appendComponent(b, c)
		b = append(b, '\n')
	}
	return append(b, ".\n"...)
}

// Walk calls fn for every operand expression of every component.
func (s *Spec) Walk(fn func(c Component, e *Expr)) {
	for _, c := range s.Components {
		for _, e := range c.Operands() {
			fn(c, e)
		}
	}
}
