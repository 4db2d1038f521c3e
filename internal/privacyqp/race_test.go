//go:build race

package privacyqp

// raceEnabled reports whether the race detector is compiled in. Under
// it sync.Pool drops Puts at random, so allocation budgets that rely on
// pooled scratch cannot be asserted.
const raceEnabled = true
