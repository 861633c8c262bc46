package main

import (
	"math"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The sandbox this benchmark runs in changes speed by itself: over
// minutes the same code takes from 1.0 to 1.8 times as long, CPU time
// as well as wall time, with no steal time reported, compute-bound code
// more than memory-bound code. No statistic within a run recovers from
// a machine that is slow for the whole run, so every run is measured
// against a yardstick: fixed reference kernels that share no code or
// state with the repository run between the run's blocks, and the run's
// times are divided by how slow the kernels ran. What is reported is
// time on the reference machine, on which each kernel takes exactly its
// nominal time. A change to the repository cannot move the yardstick,
// so a real gain or loss still shows in full; a change in machine speed
// cancels to the extent the kernels and the workload slow down alike.

// kernel is one fixed piece of reference work.
type kernel struct {
	name      string
	nominalMS float64 // its time on the reference machine
	// cpuBound kernels keep calibrationCPUs goroutines computing from
	// start to end, so their CPU time measures CPU speed alone; the
	// hand-off kernel's mostly measures how long the scheduler spins.
	cpuBound bool
	run      func()
}

// The kernels cover what the workloads do: dependent floating-point
// arithmetic, streaming, pointer chasing and goroutine hand-offs. None
// allocates: a kernel that did would be collected at a rate set by the
// workload's live heap, and a yardstick must not depend on the program.
// Nominal times are this sandbox's in its fast state.
var kernels = []kernel{
	{"fp", 15, true, func() { onEachCPU(kernelFP) }},
	{"stream", 27, true, func() { onEachCPU(kernelStream) }},
	{"chase", 22, true, func() { onEachCPU(kernelChase) }},
	{"handoff", 58, false, kernelHandoff},
}

// calibrationCPUs is how many goroutines run a kernel side by side: the
// two the smallest supported machine has, so the yardstick is the same
// work everywhere.
const calibrationCPUs = 2

func onEachCPU(f func()) {
	var wg sync.WaitGroup
	for range calibrationCPUs {
		wg.Add(1)
		go func() { defer wg.Done(); f() }()
	}
	wg.Wait()
}

// sink keeps the kernels' results alive so the compiler keeps the work.
var sink struct {
	sync.Mutex
	v float64
}

func keep(v float64) {
	sink.Lock()
	sink.v += v
	sink.Unlock()
}

func kernelFP() {
	var a [512]float64
	for i := range a {
		a[i] = float64(i) * 0.5
	}
	s := 0.0
	for range 40_000 {
		for i := range a {
			s += a[i] * 1.000001
			a[i] = s * 0.999
		}
	}
	keep(s)
}

// offHeap returns n zeroed values outside the Go heap, for the life of
// the process. The memory kernels' 40 MiB must not count as live heap:
// the collector paces itself on live heap, and the workloads would be
// collected several times less often than they are in production.
func offHeap[T any](n int) []T {
	var zero T
	raw, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]T, n) // still a yardstick, at the cost described above
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&raw[0])), n)
}

// The two memory kernels' data, built on first use: 32 MiB to stream
// through, written once so that every page is real, and 8 MiB of int32
// to chase pointers through.
var (
	streamData = sync.OnceValue(func() []float64 {
		data := offHeap[float64](4 << 20)
		for i := range data {
			data[i] = float64(i&7) - 3.5
		}
		return data
	})
	chaseNext = sync.OnceValue(func() []int32 { return randomCycle(1<<21, 12345) })
)

func kernelStream() {
	data := streamData()
	s := 0.0
	for range 5 {
		for _, v := range data {
			s += v
		}
	}
	keep(s)
}

// randomCycle returns a permutation that is one cycle through n slots,
// so that following it touches every slot in an order no prefetcher
// guesses.
func randomCycle(n int, seed uint32) []int32 {
	order := make([]int32, n) // scratch: garbage once the cycle is built
	for i := range order {
		order[i] = int32(i)
	}
	x := seed
	for i := n - 1; i > 0; i-- {
		x = x*1664525 + 1013904223
		j := int(x>>8) % (i + 1)
		order[i], order[j] = order[j], order[i]
	}
	next := offHeap[int32](n)
	for i := range order {
		next[order[i]] = order[(i+1)%n]
	}
	return next
}

func kernelChase() {
	next := chaseNext()
	p := int32(0)
	for range 400_000 {
		p = next[p]
	}
	keep(float64(p))
}

func kernelHandoff() {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v
		}
		close(pong)
	}()
	for i := range 150_000 {
		ping <- i
		<-pong
	}
	close(ping)
	<-pong
}

// yardstick collects the kernels' wall and CPU times over one run.
type yardstick struct {
	wallMS, cpuMS [][]float64 // per kernel, one time per sample
}

// sample runs every kernel once.
func (y *yardstick) sample() {
	streamData() // built before the first kernel is timed
	chaseNext()
	if y.wallMS == nil {
		y.wallMS = make([][]float64, len(kernels))
		y.cpuMS = make([][]float64, len(kernels))
	}
	for i, k := range kernels {
		cpu0, t0 := cpuTime(), time.Now()
		k.run()
		wall, cpu1 := time.Since(t0), cpuTime()
		y.wallMS[i] = append(y.wallMS[i], float64(wall)/1e6)
		y.cpuMS[i] = append(y.cpuMS[i], float64(cpu1-cpu0)/1e6)
	}
}

// slowness is how slow the machine ran relative to the reference
// machine: the geometric mean over kernels of the kernel's best-quartile
// time over its nominal time. 1.5 means that work which takes 1 s on
// the reference machine took 1.5 s. The best quartile, because that is
// how the workload's own blocks are reduced: both then describe the
// machine between its short disturbances.
//
// wall is what wall-clock metrics are divided by, cpu what CPU time is
// divided by. They differ when the hypervisor takes the processors
// away for a while: the wall clock runs on, the CPU clock does not.
func (y *yardstick) slowness() (wall, cpu float64) {
	var wallLog, cpuLog, cpuBound float64
	for i, k := range kernels {
		wallLog += math.Log(bestQuartile(y.wallMS[i], false) / k.nominalMS)
		if k.cpuBound {
			cpuLog += math.Log(bestQuartile(y.cpuMS[i], false) / (calibrationCPUs * k.nominalMS))
			cpuBound++
		}
	}
	return math.Exp(wallLog / float64(len(kernels))), math.Exp(cpuLog / cpuBound)
}
