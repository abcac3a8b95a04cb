//go:build race

package workload

// raceEnabled reports whether this test binary was built with the race
// detector; the long stream pins skip themselves under it.
const raceEnabled = true
