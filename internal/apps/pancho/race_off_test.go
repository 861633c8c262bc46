//go:build !race

package pancho

// raceEnabled reports a -race build, whose instrumentation slows the
// simulator about twentyfold.
const raceEnabled = false
