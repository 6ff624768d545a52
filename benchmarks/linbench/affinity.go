package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The lat phase is a ping-pong between two processes, and on a host with two
// or more CPUs the kernel decides whether they share one. Left to the kernel,
// that choice sets the median, not the program: on the 2-CPU calibration host
// wire_nq's slices read 91–99 us while a neighbour kept the other CPU busy
// (both processes on one CPU, no cross-CPU wake-up on the path) and 130–300 us
// otherwise (apart: every hop wakes a halted virtual CPU, at whatever the
// host's scheduler charges that moment), and ten runs spread 20–29 % of their
// median. So the lat phase confines the load generator and the linmond it
// starts to one CPU: the path is then serial in the strict sense, and what is
// timed is the work on it plus context switches. Same host, pinned:
// 121–128 us, ten runs within 5 %.

// cpuSet is a kernel CPU mask, wide enough for 1024 CPUs.
type cpuSet [16]uint64

func getAffinity(tid int) (cpuSet, error) {
	var s cpuSet
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return s, e
	}
	return s, nil
}

func setAffinity(tid int, s cpuSet) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return e
	}
	return nil
}

// last returns the set that holds only s's highest CPU (CPU 0 is where a
// small VM's interrupts tend to land).
func (s cpuSet) last() cpuSet {
	var one cpuSet
	for w := len(s) - 1; w >= 0; w-- {
		for b := 63; b >= 0; b-- {
			if s[w]&(1<<b) != 0 {
				one[w] = 1 << b
				return one
			}
		}
	}
	return s
}

// setSelfAffinity gives every thread of this process the mask s. A thread
// born during a pass inherits its creator's mask, which the pass may not have
// reached yet, so passes repeat until one changes nothing.
func setSelfAffinity(s cpuSet) error {
	for pass := 0; pass < 8; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		changed := false
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if cur, err := getAffinity(tid); err != nil || cur == s {
				continue // gone, or already there
			}
			if err := setAffinity(tid, s); err != nil && err != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity: %w", err)
			}
			changed = true
		}
		if !changed {
			return nil
		}
	}
	return nil
}

// pinToOneCPU confines this process, and every child it starts from now on,
// to the highest CPU it is allowed, and runs it on one P so that no idle P
// spins beside the one goroutine that plays. The returned function undoes
// both. On a host that refuses (a sandbox without sched_setaffinity) the
// phase runs unpinned and says so.
func pinToOneCPU() (undo func()) {
	orig, err := getAffinity(0)
	if err == nil {
		err = setSelfAffinity(orig.last())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "linbench: lat phase runs unpinned: %v\n", err)
		if orig != (cpuSet{}) {
			setSelfAffinity(orig)
		}
		return func() {}
	}
	procs := runtime.GOMAXPROCS(1)
	return func() {
		runtime.GOMAXPROCS(procs)
		setSelfAffinity(orig)
	}
}
