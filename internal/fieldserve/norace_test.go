//go:build !race

package fieldserve

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = false
