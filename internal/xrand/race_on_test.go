//go:build race

package xrand_test

// raceEnabled reports whether this test binary was built with the race
// detector; the oracle sweeps shrink under it.
const raceEnabled = true
