package bench

import "time"

// Every interval the harness reports is wall time, at the GOMAXPROCS the
// process was started with: what a caller waited. The process's CPU clock
// (onCPU) is read beside it for one purpose, the validity check in timed.

var processStart = time.Now()

// now is an instant on the monotonic wall clock.
func now() time.Duration { return time.Since(processStart) }

// timed runs fn and returns the wall time it took and the share of that
// time the process spent on a processor. A serial, compute-bound call keeps
// one processor busy from start to end, so a share well below 1 means
// something outside the process took the processor away (on the sandbox
// this benchmark is sized for, the hypervisor) and the wall time says
// nothing about the code.
func timed(fn func() error) (wall time.Duration, busy float64, err error) {
	cpu, start := onCPU(), now()
	err = fn()
	wall = now() - start
	return wall, ratio(float64(onCPU()-cpu), float64(wall)), err
}

// A serial operation whose busy share is below minBusy is run again, at most
// maxRepeats times; the run prints how often that happened.
const (
	minBusy    = 0.9
	maxRepeats = 2
)

// clock is the time source of the load generator; tests substitute a fake.
type clock interface {
	Now() time.Duration
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Duration { return now() }

// Sleep returns within microseconds of d. Timers on the sandbox fire on a
// grid of about a millisecond, too coarse for an open loop whose requests
// are a fraction of a millisecond apart, so only a long wait starts with a
// timer and the rest is a busy wait that keeps its processor. (Yielding
// instead starves the network poller: a goroutine that keeps calling
// runtime.Gosched is always runnable, and responses then sit unread until it
// stops.) The goroutine that waits is the one that sends next, so what its
// request makes runnable runs on the processor it frees; see openLoop.
func (wallClock) Sleep(d time.Duration) {
	const timerSlack = 3 * time.Millisecond
	deadline := now() + d
	if d > timerSlack {
		time.Sleep(d - timerSlack)
	}
	for now() < deadline {
	}
}
