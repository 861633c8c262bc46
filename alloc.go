package cool

// This file provides the object allocation and distribution constructs of
// the paper: placed allocation (the COOL "new" operator with a processor
// argument), migrate(), and home().
//
// The arrays are warm across Reset. The runtime records every F64 and I64
// a run allocates, as memsim keeps the run's simulated memory allocated
// until Reset; Reset puts them on free lists keyed by exact length, and
// the next runs' allocations of those lengths reuse them, cleared,
// instead of making new ones (warm.go).

import (
	"fmt"
	"sync/atomic"
)

// F64 is an array of float64 living in simulated shared memory. Data
// holds the real values; Base is the simulated address of element 0.
type F64 struct {
	Base int64
	Data []float64
}

// Addr returns the simulated address of element i.
func (a *F64) Addr(i int) int64 { return a.Base + int64(i)*8 }

// Len returns the number of elements.
func (a *F64) Len() int { return len(a.Data) }

// Slice returns a view of elements [lo, hi) sharing the same storage and
// address range.
func (a *F64) Slice(lo, hi int) *F64 {
	return &F64{Base: a.Base + int64(lo)*8, Data: a.Data[lo:hi]}
}

// I64 is an array of int64 in simulated shared memory.
type I64 struct {
	Base int64
	Data []int64
}

// Addr returns the simulated address of element i.
func (a *I64) Addr(i int) int64 { return a.Base + int64(i)*8 }

// Len returns the number of elements.
func (a *I64) Len() int { return len(a.Data) }

// Slice returns a view of elements [lo, hi) sharing the same storage.
func (a *I64) Slice(lo, hi int) *I64 {
	return &I64{Base: a.Base + int64(lo)*8, Data: a.Data[lo:hi]}
}

// Obj is a handle to an untyped simulated object; applications model its
// fields as byte offsets and keep the real state in Go values.
type Obj struct {
	Base int64
	Size int64
}

// procMod maps a COOL "processor number" argument onto a server, modulo
// the number of processors (the paper's convention), so explicit
// placements can never name a processor outside the machine.
func (rt *Runtime) procMod(proc int) int {
	p := proc % rt.cfg.Processors
	if p < 0 {
		p += rt.cfg.Processors
	}
	return p
}

// spaceAlloc, spaceAllocPages, and spaceMigrate serialize the
// address-space writes under the runtime's space lock: native tasks may
// allocate and migrate concurrently. Home lookups take no lock.
func (rt *Runtime) spaceAlloc(size int64, proc int) int64 {
	rt.spaceMu.Lock()
	defer rt.spaceMu.Unlock()
	return rt.space.Alloc(size, proc)
}

func (rt *Runtime) spaceAllocPages(size int64, proc int) int64 {
	rt.spaceMu.Lock()
	defer rt.spaceMu.Unlock()
	return rt.space.AllocPages(size, proc)
}

func (rt *Runtime) spaceMigrate(addr, size int64, proc int) int {
	rt.spaceMu.Lock()
	defer rt.spaceMu.Unlock()
	return rt.space.Migrate(addr, size, proc)
}

// allocSize validates a requested allocation size. A non-positive size
// records a sticky setup error — reported by Run instead of executing —
// and substitutes a minimal valid size so the returned handle stays
// usable in affinity expressions without panicking.
func (rt *Runtime) allocSize(size int64, what string) int64 {
	if size <= 0 {
		rt.setupError("cool: %s: allocation size %d must be positive", what, size)
		return 8
	}
	return size
}

// taskAllocLen is allocSize for an array allocated inside a task, where
// there is no setup phase to fail: a non-positive element count panics,
// and Run returns the task's *TaskPanicError.
func taskAllocLen(n int, what string) {
	if n <= 0 {
		panic(fmt.Sprintf("cool: %s: allocation size %d must be positive", what, int64(n)*8))
	}
}

// reserveLocked allocates the simulated memory of an n-element array of
// 8-byte words homed at proc: at least one word, the size allocSize
// substitutes for an invalid count. Caller holds spaceMu.
func (rt *Runtime) reserveLocked(n, proc int, pages bool) int64 {
	size := max(int64(n)*8, 8)
	if pages {
		return rt.space.AllocPages(size, proc)
	}
	return rt.space.Alloc(size, proc)
}

// newF64 is the one path every F64 allocation takes: simulated memory
// at proc, and a handle of max(n, 0) elements that is a previous run's,
// cleared, when one of that length is free, or a new one. The handle is
// recorded for Reset to reclaim. The clear and the make run outside the
// lock, on a handle no other task can see yet.
func (rt *Runtime) newF64(n, proc int, pages bool) *F64 {
	n = max(n, 0)
	rt.spaceMu.Lock()
	base := rt.reserveLocked(n, proc, pages)
	w := rt.warmLocked()
	a, reused := w.f64.take(n)
	if !reused {
		a = new(F64)
	}
	w.f64.used = append(w.f64.used, a)
	rt.spaceMu.Unlock()
	if reused {
		clear(a.Data)
	} else {
		a.Data = make([]float64, n)
	}
	a.Base = base
	return a
}

// newI64 is newF64 for int64 arrays.
func (rt *Runtime) newI64(n, proc int, pages bool) *I64 {
	n = max(n, 0)
	rt.spaceMu.Lock()
	base := rt.reserveLocked(n, proc, pages)
	w := rt.warmLocked()
	a, reused := w.i64.take(n)
	if !reused {
		a = new(I64)
	}
	w.i64.used = append(w.i64.used, a)
	rt.spaceMu.Unlock()
	if reused {
		clear(a.Data)
	} else {
		a.Data = make([]int64, n)
	}
	a.Base = base
	return a
}

// NewF64 allocates an n-element array homed in the local memory of
// processor proc (modulo the number of processors), like COOL's
// new(proc). The array reads zero. After a Reset it may reuse the
// storage of an array a previous job allocated at the same length.
func (rt *Runtime) NewF64(n int, proc int) *F64 {
	rt.allocSize(int64(n)*8, "NewF64")
	return rt.newF64(n, rt.procMod(proc), false)
}

// NewF64Pages allocates a page-aligned array so parts of it can be
// migrated independently.
func (rt *Runtime) NewF64Pages(n int, proc int) *F64 {
	rt.allocSize(int64(n)*8, "NewF64Pages")
	return rt.newF64(n, rt.procMod(proc), true)
}

// NewI64 allocates an n-element int64 array homed at processor proc.
func (rt *Runtime) NewI64(n int, proc int) *I64 {
	rt.allocSize(int64(n)*8, "NewI64")
	return rt.newI64(n, rt.procMod(proc), false)
}

// NewI64Pages allocates a page-aligned int64 array (independently
// migratable).
func (rt *Runtime) NewI64Pages(n int, proc int) *I64 {
	rt.allocSize(int64(n)*8, "NewI64Pages")
	return rt.newI64(n, rt.procMod(proc), true)
}

// NewObj allocates a size-byte object homed at processor proc.
func (rt *Runtime) NewObj(size int64, proc int) Obj {
	return Obj{Base: rt.spaceAlloc(rt.allocSize(size, "NewObj"), rt.procMod(proc)), Size: size}
}

// NewObjPages allocates a page-aligned object (independently migratable).
func (rt *Runtime) NewObjPages(size int64, proc int) Obj {
	return Obj{Base: rt.spaceAllocPages(rt.allocSize(size, "NewObjPages"), rt.procMod(proc)), Size: size}
}

// Migrate re-homes the pages spanned by [addr, addr+size) to processor
// proc's local memory without charging simulated time (setup use; inside
// a task prefer Ctx.Migrate).
func (rt *Runtime) Migrate(addr, size int64, proc int) {
	if size <= 0 {
		rt.setupError("cool: Migrate: size %d must be positive", size)
		return
	}
	rt.spaceMigrate(addr, size, rt.procMod(proc))
}

// Home returns the server that the runtime treats as the home processor
// of the object at addr (COOL's home()), on either backend. It is also
// the native scheduler's address-space lookup (native.Config.Home), so it
// takes no lock: memsim publishes its page tables for lock-free reads.
func (rt *Runtime) Home(addr int64) int { return rt.space.HomeProc(addr) }

// NewF64 allocates from the local memory of the requesting processor,
// the COOL default for new.
func (c *Ctx) NewF64(n int) *F64 {
	taskAllocLen(n, "NewF64")
	return c.rt.newF64(n, c.ProcID(), false)
}

// NewF64On allocates homed at an explicit processor, like new(proc).
func (c *Ctx) NewF64On(n int, proc int) *F64 { return c.rt.NewF64(n, proc) }

// NewI64 allocates from the local memory of the requesting processor.
func (c *Ctx) NewI64(n int) *I64 {
	taskAllocLen(n, "NewI64")
	return c.rt.newI64(n, c.ProcID(), false)
}

// NewObj allocates an object in the requesting processor's local memory.
func (c *Ctx) NewObj(size int64) Obj {
	return Obj{Base: c.rt.spaceAlloc(size, c.ProcID()), Size: size}
}

// Migrate moves the object at [addr, addr+size) to processor proc's
// local memory, charging the page-migration cost (DASH migrates whole
// pages; see the paper's footnote 2).
func (c *Ctx) Migrate(addr, size int64, proc int) {
	pages := c.rt.spaceMigrate(addr, size, c.rt.procMod(proc))
	if c.nc != nil {
		return // re-homing still steers future placement; no cycle cost
	}
	c.sc.Charge(int64(pages) * c.rt.cfg.Lat.MigratePage)
}

// Home returns the home processor of the object at addr (COOL's home()).
func (c *Ctx) Home(addr int64) int { return c.rt.Home(addr) }

// ReadF64 reads element i of a through the simulated memory hierarchy.
func (c *Ctx) ReadF64(a *F64, i int) float64 {
	c.Access(a.Addr(i), 8, false)
	return a.Data[i]
}

// WriteF64 writes element i of a through the simulated memory hierarchy.
func (c *Ctx) WriteF64(a *F64, i int, v float64) {
	c.Access(a.Addr(i), 8, true)
	a.Data[i] = v
}

// ReadF64Range charges a read of elements [lo, hi) (line-granular) and
// returns the underlying values. Use for streaming loops where per-element
// calls would dominate host time.
func (c *Ctx) ReadF64Range(a *F64, lo, hi int) []float64 {
	if hi > lo {
		c.Access(a.Addr(lo), int64(hi-lo)*8, false)
	}
	return a.Data[lo:hi]
}

// WriteF64Range charges a write of elements [lo, hi) and returns the
// underlying slice for the caller to fill.
func (c *Ctx) WriteF64Range(a *F64, lo, hi int) []float64 {
	if hi > lo {
		c.Access(a.Addr(lo), int64(hi-lo)*8, true)
	}
	return a.Data[lo:hi]
}

// ReadI64 reads element i of a through the simulated memory hierarchy.
func (c *Ctx) ReadI64(a *I64, i int) int64 {
	c.Access(a.Addr(i), 8, false)
	return a.Data[i]
}

// WriteI64 writes element i of a through the simulated memory hierarchy.
func (c *Ctx) WriteI64(a *I64, i int, v int64) {
	c.Access(a.Addr(i), 8, true)
	a.Data[i] = v
}

// Touch charges an access to bytes [off, off+size) of object o.
func (c *Ctx) Touch(o Obj, off, size int64, write bool) {
	c.Access(o.Base+off, size, write)
}

// LoadI64 reads element i of a without charging simulated time, using an
// atomic load on the native backend. Use for shared counters that
// concurrent tasks update through AddI64 (charge the reference
// separately with Access where the model needs it); a plain ReadI64 of
// such an element would be a data race under real parallelism.
func (c *Ctx) LoadI64(a *I64, i int) int64 {
	if c.nc != nil {
		return atomic.LoadInt64(&a.Data[i])
	}
	return a.Data[i]
}

// AddI64 adds delta to element i of a without charging simulated time,
// using an atomic add on the native backend. The simulator's cooperative
// tasks never race, so there it is a plain read-modify-write.
func (c *Ctx) AddI64(a *I64, i int, delta int64) {
	if c.nc != nil {
		atomic.AddInt64(&a.Data[i], delta)
		return
	}
	a.Data[i] += delta
}
