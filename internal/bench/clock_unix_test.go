//go:build unix

package bench

import (
	"testing"
	"time"
)

// TestTimedReportsBusyShare checks the signal the repeat rule rests on: a
// call that computes keeps the process on a processor, a call that waits
// does not. The thresholds leave room for a machine busy with other tests.
func TestTimedReportsBusyShare(t *testing.T) {
	const d = 40 * time.Millisecond
	_, idle, _ := timed(func() error { time.Sleep(d); return nil })
	_, busy, _ := timed(func() error {
		for start := now(); now()-start < d; {
		}
		return nil
	})
	if idle > 0.3 || busy < 0.4 {
		t.Errorf("busy share %.2f while sleeping (want near 0), %.2f while computing (want near 1)", idle, busy)
	}
}
