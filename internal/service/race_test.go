//go:build race

package service

// raceEnabled: allocation budgets are skipped under the race detector,
// whose instrumentation they would otherwise pin.
const raceEnabled = true
