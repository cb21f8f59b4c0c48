//go:build linux

package main

import (
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// pinnedEnv marks a process that has already pinned itself.
const pinnedEnv = "E2E_PINNED"

// pinToOneCPU restricts this process and every process it starts to the
// highest-numbered CPU it may run on, by setting the calling thread's
// affinity and executing the binary afresh (threads inherit the mask of
// the thread that created them, and the runtime has several by now). Every
// run does this so that the host-reference process shares the program's
// CPU: what it times is then the speed of the very hardware thread the
// program computes on. It returns only where pinning is not possible; the
// run then goes on unpinned.
func pinToOneCPU() {
	if os.Getenv(pinnedEnv) != "" {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var mask [16]uint64
	size := uintptr(len(mask) * 8)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		return
	}
	last := -1
	for cpu := 0; cpu < len(mask)*64; cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			last = cpu
		}
	}
	if last < 0 {
		return
	}
	mask = [16]uint64{}
	mask[last/64] = 1 << (last % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		return
	}
	exe, err := os.Executable()
	if err != nil {
		return
	}
	syscall.Exec(exe, os.Args, append(os.Environ(), pinnedEnv+"=1")) //nolint:errcheck // returns only on failure: go on unpinned
}
