//go:build linux

package obs

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID: the calling
// thread's CPU time, including the slice it is running now. (Thread
// rusage lags by up to a scheduler tick, which can exceed a short
// span's whole wall time.)
const clockThreadCPUTimeID = 3

// threadCPU returns the calling OS thread's id and the CPU time (user +
// system) it has consumed. The goroutine is locked to its thread across
// the two reads, so they describe the same thread. Goroutines are not
// pinned to threads between calls, so a span compares the ids read at
// Begin and End: a delta between two different threads' clocks means
// nothing, and such a span's CPU is marked unknown.
func threadCPU() (tid int, cpu time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, 0
	}
	return syscall.Gettid(), time.Duration(ts.Nano())
}
