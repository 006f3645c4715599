//go:build linux

package main

import (
	"syscall"
	"time"
)

// prSetTimerSlack is prctl's PR_SET_TIMERSLACK option.
const prSetTimerSlack = 29

// preciseSleep sleeps d with nanosleep, bypassing the runtime timers
// (which round sub-millisecond waits up to 1 ms). It first lowers the
// current thread's timer slack from the default 50 µs to 1 ns, so the
// sleep ends within a few microseconds of d; the setting is per thread
// and costs one system call, so it is simply repeated on every sleep.
func preciseSleep(d time.Duration) {
	// Best effort: without it the sleep is merely coarser.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is re-entered by sleepUntil
}

// syncFilesystems flushes every filesystem's dirty pages.
func syncFilesystems() { syscall.Sync() }
