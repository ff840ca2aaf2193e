package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// cpuClock is an obs.Clock that reads the CPU time the process has
// used so far, over all its threads, user and system, in nanoseconds
// from process start. obs.Since over it gives the CPU one operation
// cost, GC work that ran beside it included. Unlike a wall clock it
// does not count time the host gave to anyone else, so on a shared
// machine it moves with the program, not with the neighbours.
type cpuClock struct{}

// cpuZero is the process's CPU time at its start.
var cpuZero = time.Unix(0, 0)

func (cpuClock) Now() time.Time {
	var ts syscall.Timespec
	_, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if e != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", e))
	}
	return time.Unix(ts.Sec, ts.Nsec)
}
