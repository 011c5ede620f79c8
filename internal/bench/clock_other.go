//go:build !unix

package bench

import "time"

// onCPU falls back to the wall clock where getrusage does not exist; every
// busy share then reads 1 and nothing is repeated.
func onCPU() time.Duration { return now() }
