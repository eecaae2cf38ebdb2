//go:build race

package main

// raceEnabled: the race detector's instrumentation allocates, so the
// allocation pin does not hold under it.
const raceEnabled = true
