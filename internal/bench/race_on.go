//go:build race

package bench

// raceEnabled reports that the binary carries the race detector, which
// slows the measured code several times over: Main refuses to run.
const raceEnabled = true
