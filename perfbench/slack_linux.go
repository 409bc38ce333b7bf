package main

import (
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// preciseThread lowers the calling thread's timer slack to 1µs so
// nanosleep wakes within microseconds instead of the default 50µs.
// The caller must hold the thread (runtime.LockOSThread) and never
// release it, so the thread dies with the goroutine and no other
// goroutine runs on it.
func preciseThread() {
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// shortSleep blocks the thread for d; Go's timers round waits below
// a millisecond up to about one when the process is idle.
func shortSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
