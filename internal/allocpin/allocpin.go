// Package allocpin is the allocation pins' shared measurement: the
// steady-state budgets in campaign and service measure the same way
// and skip under the race detector the same way.
package allocpin

import "testing"

// Least is testing.AllocsPerRun with the noise taken out: the least of
// three measurements, so a garbage collection that happens to empty a
// sync.Pool mid-measurement does not count as a regression — a real
// one shows in every measurement.
func Least(f func()) float64 {
	least := testing.AllocsPerRun(5, f)
	for range 2 {
		least = min(least, testing.AllocsPerRun(5, f))
	}
	return least
}

// SkipUnderRace skips t under the race detector, whose instrumentation
// allocates and whose sync.Pool drops items at random, so no
// allocation pin holds there; CI runs the pins in a non-race step.
func SkipUnderRace(t testing.TB) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation pins do not hold under the race detector")
	}
}
