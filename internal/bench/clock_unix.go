//go:build unix

package bench

import (
	"syscall"
	"time"
)

// onCPU returns the process's CPU time so far, user and system.
func onCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only a bad argument can fail it
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
