//go:build race

package cache

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own and voids allocation counts.
const raceEnabled = true
