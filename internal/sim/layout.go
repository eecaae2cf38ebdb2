package sim

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/rtl/sem"
)

// Layout is what a Machine, a Gang and the tools that observe them (the
// tracer, the VCD dumper, the fault injector) know about a program
// besides its evaluator: the name of every value slot, the shape of
// every memory, which slots are traced, and how wide each output is. It
// is built once per program from the semantic analysis and shared
// read-only by every machine and gang of the program, so a compiled
// program runs — and is observed — without keeping its syntax tree.
type Layout struct {
	// Names is each slot's component name: the combinational components
	// in dependency order, then the memories in declaration order (the
	// slot numbering of sem.Info.Order, which evaluators index).
	Names []string

	// Widths is each slot's estimated output width in bits
	// (sem.Info.Widths), the width the VCD dumper declares.
	Widths []uint8

	// Mems describes the memories, by ordinal.
	Mems []MemLayout

	// Traced holds the slots of the '*'-marked components, in name-list
	// order (marked names that define no component are skipped).
	Traced []int

	byNameOnce sync.Once
	byName     []int32 // slots sorted by name, built on first Slot
}

// MemLayout is one memory's place in the layout.
type MemLayout struct {
	Name string
	Slot int
	Size int
	Init []int64 // declared initial cells; nil when none were declared
}

// NewLayout builds the layout of an analyzed specification.
func NewLayout(info *sem.Info) *Layout {
	l := &Layout{
		Names:  make([]string, len(info.Order)),
		Widths: make([]uint8, len(info.Order)),
		Mems:   make([]MemLayout, len(info.Mems)),
		Traced: make([]int, 0, len(info.Traced)),
	}
	for slot, c := range info.Order {
		l.Names[slot] = c.CompName()
	}
	for slot, w := range info.Widths {
		l.Widths[slot] = uint8(w)
	}
	for i, m := range info.Mems {
		// Order is the combinational components, then the memories.
		l.Mems[i] = MemLayout{Name: m.Name, Slot: len(info.Comb) + i, Size: m.Size, Init: m.Init}
	}
	for _, name := range info.Traced {
		if slot, ok := info.Slot[name]; ok {
			l.Traced = append(l.Traced, slot)
		}
	}
	return l
}

// Slots returns the number of value slots.
func (l *Layout) Slots() int { return len(l.Names) }

// Slot returns the value slot of the named component. The name index is
// built on first use: a program that is only run, never observed by
// name, does not pay for it.
func (l *Layout) Slot(name string) (int, bool) {
	l.byNameOnce.Do(func() {
		l.byName = make([]int32, len(l.Names))
		for slot := range l.byName {
			l.byName[slot] = int32(slot)
		}
		slices.SortFunc(l.byName, func(a, b int32) int { return strings.Compare(l.Names[a], l.Names[b]) })
	})
	i, ok := slices.BinarySearchFunc(l.byName, name, func(slot int32, name string) int {
		return strings.Compare(l.Names[slot], name)
	})
	if !ok {
		return 0, false
	}
	return int(l.byName[i]), true
}

// Memory returns the ordinal of the named memory.
func (l *Layout) Memory(name string) (int, bool) {
	for i := range l.Mems {
		if l.Mems[i].Name == name {
			return i, true
		}
	}
	return 0, false
}
