//go:build !race

package allocpin

const raceEnabled = false
