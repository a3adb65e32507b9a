package main

import (
	"crypto/sha256"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/rng"
)

// A shared host runs the benchmark's virtual CPUs at a speed that drifts
// over tens of seconds: other tenants' load on the same cores and caches
// changes how much work a second buys, CPU time as much as wall time. The
// daemon's jobs feel it more than a plain compute loop does, because they
// are bound by arithmetic and by cache misses alike. So between jobs every
// CPU runs two fixed reference computations, one bound by arithmetic
// (SHA-256 over a buffer that fits in L1) and one by memory latency (a
// random pointer chase through 4 MiB), and the host's slowdown is the
// product of their times against nominal. A job's time divided by the
// slowdown around it is the time it would take on the nominal host. The
// probes are stdlib code and call nothing of the repository, so a change to
// the program cannot move them.

const (
	// probeBlock is the arithmetic probe's unit: SHA-256 over this many
	// bytes.
	probeBlock = 16 << 10
	// probeBlocks is the arithmetic probe's units per CPU (about 2 ms).
	probeBlocks = 160
	// nominalBlock is one arithmetic unit's CPU time on the nominal host,
	// about what an unloaded 2.1 GHz Xeon core gives it.
	nominalBlock = 12 * time.Microsecond

	// chaseLen is the pointer-chase table length (uint32 entries: 4 MiB).
	chaseLen = 1 << 20
	// chaseSteps is the memory probe's loads per CPU (about 2 ms).
	chaseSteps = 16384
	// nominalStep is one dependent load's CPU time on the nominal host.
	nominalStep = 100 * time.Nanosecond
)

var (
	probeBuf = func() []byte {
		b := make([]byte, probeBlock)
		for i := range b {
			b[i] = byte(i * 131)
		}
		return b
	}()
	// chase is one random cycle through all its entries: chase[i] is the
	// entry after i.
	chase = func() []uint32 {
		x := rng.NewXoshiro(0x5C09E)
		perm := make([]uint32, chaseLen)
		for i := range perm {
			perm[i] = uint32(i)
		}
		for i := chaseLen - 1; i > 0; i-- {
			j := x.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		next := make([]uint32, chaseLen)
		for i, p := range perm {
			next[p] = perm[(i+1)%chaseLen]
		}
		return next
	}()
)

// hostSpeed probes the host once and returns its slowdown against the
// nominal host (1: nominal; 1.2: everything takes 20% longer). Each of
// GOMAXPROCS goroutines is locked to its own thread and times both probes
// on that thread's CPU clock, so time the guest gives to other threads does
// not count; the slowdown is the median over the threads.
func hostSpeed() float64 {
	n := runtime.GOMAXPROCS(0)
	per := make([]float64, n)
	ends := make([]uint32, n) // where each chase stopped, so it stays live
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPU()
			for u := 0; u < probeBlocks; u++ {
				sha256.Sum256(probeBuf)
			}
			t1 := threadCPU()
			p := uint32(g)
			for u := 0; u < chaseSteps; u++ {
				p = chase[p]
			}
			t2 := threadCPU()
			ends[g] = p
			arith := float64(t1-t0) / probeBlocks / float64(nominalBlock)
			mem := float64(t2-t1) / chaseSteps / float64(nominalStep)
			per[g] = arith * mem
		}()
	}
	wg.Wait()
	sort.Float64s(per)
	if n%2 == 1 {
		return per[n/2]
	}
	return (per[n/2-1] + per[n/2]) / 2
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
// Linux always has that clock, so a failure is a broken host.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_THREAD_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
