//go:build race

package serve

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own.
const raceEnabled = true
