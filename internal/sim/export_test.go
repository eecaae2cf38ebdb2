package sim

import "fmt"

// SetValue overrides a component's current output. Overriding a
// combinational output lasts only until the next cycle recomputes it.
func (m *Machine) SetValue(name string, v int64) {
	slot, ok := m.Layout().Slot(name)
	if !ok {
		panic(fmt.Sprintf("sim: unknown component %q", name))
	}
	m.g.vals[slot] = v
}
