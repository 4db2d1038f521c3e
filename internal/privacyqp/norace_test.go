//go:build !race

package privacyqp

// raceEnabled reports whether the race detector is compiled in (see
// race_test.go).
const raceEnabled = false
