//go:build race

package store

// raceEnabled: allocation budgets are skipped under the race detector,
// whose instrumentation they would otherwise pin.
const raceEnabled = true
