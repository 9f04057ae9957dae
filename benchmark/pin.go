package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// pinnedEnv marks a process that already runs pinned.
const pinnedEnv = "CABLE_BENCHMARK_PINNED"

// pinToOneCPU confines the process to the lowest-numbered CPU it is
// allowed on, by setting the affinity of the calling thread and
// executing the same binary again, so that every thread of the new image
// inherits it (threads the runtime started before main would otherwise
// keep the old mask). With one CPU to run on, GOMAXPROCS is 1 as well.
//
// End-to-end runs are pinned because the sandbox does not give two
// steady cores: whatever runs on the second vCPU (garbage collection,
// the kernel's side of a socket, a parallel worker) slows the first by
// up to a third, and keeps slowing the next process for tens of seconds
// after it has gone. On one CPU, run-to-run spread falls from about 20%
// to a few per cent, and pipe_tcp is faster than on two.
func pinToOneCPU() error {
	if os.Getenv(pinnedEnv) != "" {
		return nil
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	runtime.LockOSThread()
	var mask [16]uint64 // room for 1024 CPUs
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		runtime.UnlockOSThread()
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	for i, word := range mask {
		if word != 0 {
			mask = [16]uint64{}
			mask[i] = word & -word // lowest set bit
			break
		}
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		runtime.UnlockOSThread()
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	return syscall.Exec(self, os.Args, append(os.Environ(), pinnedEnv+"=1"))
}
