package cool

import (
	"github.com/coolrts/cool/internal/core"
	"github.com/coolrts/cool/internal/native"
	"github.com/coolrts/cool/internal/sim"
)

// Ctx is the execution context of a running task. Every simulated action —
// computing, touching memory, spawning, synchronizing — goes through it
// and is charged simulated cycles on the current processor. On the
// native backend (nc non-nil) the same API drives the goroutine
// scheduler instead: spawning, affinity placement, and monitors behave
// identically, while the memory-system charges (Access, Prefetch) are
// no-ops because the real machine's caches do the work.
//
// A Ctx is valid only during the task body it was passed to, on both
// engines: do not keep it, or use it from another task or goroutine.
// (Both engines reuse it in place for a later task.)
type Ctx struct {
	sc    *sim.Ctx    // sim backend only
	nc    *native.Ctx // native backend only
	rt    *Runtime
	scope *core.Scope // innermost active waitfor scope (sim backend)
}

// Runtime returns the runtime executing this task.
func (c *Ctx) Runtime() *Runtime { return c.rt }

// ProcID returns the processor currently executing the task.
func (c *Ctx) ProcID() int {
	if c.nc != nil {
		return c.nc.ProcID()
	}
	return c.sc.Proc().ID
}

// Cluster returns the cluster of the current processor.
func (c *Ctx) Cluster() int { return c.rt.cfg.ClusterOf(c.ProcID()) }

// NumProcs returns the number of processors in the machine.
func (c *Ctx) NumProcs() int { return c.rt.cfg.Processors }

// Now returns the current time on this processor: simulated cycles on
// the simulator backend, wall-clock nanoseconds on the native backend.
func (c *Ctx) Now() int64 {
	if c.nc != nil {
		return c.nc.Now()
	}
	return c.sc.Now()
}

// Compute charges cycles of pure computation (no memory traffic). On the
// native backend the work-unit count still accumulates in the
// ComputeCycles counter (so utilization figures stay meaningful) but no
// time passes — the real computation is the time.
//
// The native path is inlined at every call site: it adds to the running
// worker's row through the pointer its task context carries.
func (c *Ctx) Compute(cycles int64) {
	if c.nc != nil {
		c.nc.Counters().ComputeCycles += cycles
		return
	}
	c.computeSim(cycles)
}

// computeSim is Compute's simulator path, kept out of line so Compute
// itself stays within the inlining budget.
//
//go:noinline
func (c *Ctx) computeSim(cycles int64) {
	c.rt.mon.Per[c.sc.Proc().ID].ComputeCycles += cycles
	c.sc.Charge(cycles)
}

// Access simulates a reference to [addr, addr+size) and charges the
// latency of whichever level of the memory hierarchy services it. On the
// native backend this is a no-op: the host memory system services the
// program's real loads and stores, and the simulated cache counters stay
// zero. The no-op is inlined at every call site; the simulation is not.
func (c *Ctx) Access(addr, size int64, write bool) {
	if c.nc != nil {
		return
	}
	c.accessSim(addr, size, write)
}

// accessSim is Access's simulator path.
func (c *Ctx) accessSim(addr, size int64, write bool) {
	p := c.sc.Proc().ID
	cyc := c.rt.caches.Access(p, c.sc.Now(), addr, size, write)
	c.rt.mon.Per[p].MemCycles += cyc
	c.sc.Charge(cyc)
}

// spawnOptions accumulates the affinity specification of one spawn. It
// lives on the spawner's stack: the first two OBJECT operands are kept in
// objBuf by value, and only a spawn naming a third copies them all into
// the heap slice objSpill (a slice into objBuf stored in the struct itself
// would make every spawn's options escape).
type spawnOptions struct {
	aff      core.Affinity
	mutex    *Monitor
	nObj     int // OBJECT affinity operands named so far
	objBuf   [2]sizedObj
	objSpill []sizedObj // every operand in order, once there are three or more
}

// objs returns the OBJECT affinity operands in the order they were named
// (the §4.1 prefetch order).
func (o *spawnOptions) objs() []sizedObj {
	if o.objSpill != nil {
		return o.objSpill
	}
	return o.objBuf[:o.nObj]
}

// addObj appends one OBJECT affinity operand.
func (o *spawnOptions) addObj(ob sizedObj) {
	switch {
	case o.nObj < len(o.objBuf):
		o.objBuf[o.nObj] = ob
	case o.objSpill == nil:
		o.objSpill = []sizedObj{o.objBuf[0], o.objBuf[1], ob}
	default:
		o.objSpill = append(o.objSpill, ob)
	}
	o.nObj++
}

// sizedObj is one OBJECT affinity operand with an optional size used to
// weigh placement when several objects are named.
type sizedObj struct {
	addr int64
	size int64
}

// SpawnOpt is an affinity hint or execution option for Spawn, mirroring
// the affinity declarations of Table 1 in the paper. It is a small value
// (not a closure), so building options at a spawn site costs no heap
// allocation — spawning is the native backend's hottest path.
type SpawnOpt struct {
	kind  optKind
	addr  int64
	size  int64
	proc  int
	mutex *Monitor
}

type optKind uint8

const (
	optOnObject optKind = iota + 1
	optTaskAffinity
	optObjectSized
	optOnProcessor
	optWithMutex
)

// apply folds one option into the accumulated spawn specification.
func (op SpawnOpt) apply(o *spawnOptions) {
	switch op.kind {
	case optOnObject:
		o.aff.TaskObj = op.addr
		switch o.aff.Kind {
		case core.AffNone:
			o.aff.Kind = core.AffSimple
		case core.AffObject:
			o.aff.Kind = core.AffTaskObject
		}
	case optTaskAffinity:
		o.aff.TaskObj = op.addr
		switch o.aff.Kind {
		case core.AffNone, core.AffSimple:
			o.aff.Kind = core.AffTask
		case core.AffObject, core.AffTaskObject:
			o.aff.Kind = core.AffTaskObject
		}
	case optObjectSized:
		o.addObj(sizedObj{addr: op.addr, size: op.size})
		o.aff.ObjectObj = op.addr
		switch o.aff.Kind {
		case core.AffNone, core.AffSimple:
			o.aff.Kind = core.AffObject
		case core.AffTask:
			o.aff.Kind = core.AffTaskObject
		}
	case optOnProcessor:
		o.aff.Kind = core.AffProcessor
		o.aff.Processor = op.proc
	case optWithMutex:
		o.mutex = op.mutex
	}
}

// OnObject declares simple affinity: the task wants cache and memory
// locality on the object at addr (also the "default affinity" a COOL
// parallel function has for its base object).
func OnObject(addr int64) SpawnOpt {
	return SpawnOpt{kind: optOnObject, addr: addr}
}

// TaskAffinity declares affinity(obj, TASK): tasks naming the same object
// form a task-affinity set executed back to back for cache reuse.
func TaskAffinity(addr int64) SpawnOpt {
	return SpawnOpt{kind: optTaskAffinity, addr: addr}
}

// ObjectAffinity declares affinity(obj, OBJECT): the task is collocated
// with the processor whose local memory homes the object.
func ObjectAffinity(addr int64) SpawnOpt {
	return ObjectAffinitySized(addr, 0)
}

// ObjectAffinitySized declares OBJECT affinity for an object of known
// size. When a spawn names several objects, the task is placed on the
// server homing the most bytes and the runtime prefetches the remaining
// objects as the task starts — the multiple-object heuristic the paper
// proposes in §4.1.
func ObjectAffinitySized(addr, size int64) SpawnOpt {
	return SpawnOpt{kind: optObjectSized, addr: addr, size: size}
}

// OnProcessor declares affinity(n, PROCESSOR): schedule the task directly
// on server n modulo the number of processors.
func OnProcessor(n int) SpawnOpt {
	return SpawnOpt{kind: optOnProcessor, proc: n}
}

// WithMutex makes the spawned task a COOL mutex function: it acquires the
// monitor before its body runs and releases it after, serializing with
// other mutex tasks on the same object.
func WithMutex(m *Monitor) SpawnOpt {
	return SpawnOpt{kind: optWithMutex, mutex: m}
}

// Spawn creates a task executing fn. With no options the task has no
// locality preference; affinity options steer its placement exactly as
// the paper's affinity declarations do. The task is accounted to the
// innermost enclosing WaitFor scope (transitively inherited by its own
// spawns).
func (c *Ctx) Spawn(name string, fn func(*Ctx), opts ...SpawnOpt) {
	if c.nc != nil {
		a, nm := nativeOptions(c.rt, opts)
		c.nc.SpawnPayload(name, a, nm, fn)
		return
	}
	c.spawnSim(name, fn, nil, 0, opts)
}

// spawnSim places and enqueues one simulated task. Its body is fn, or,
// for SpawnN member i, fnN applied to i; both ride in the task's pooled
// record, so spawning allocates nothing once the free list is warm.
func (c *Ctx) spawnSim(name string, fn func(*Ctx), fnN func(*Ctx, int), i int, opts []SpawnOpt) {
	c.sc.SyncPoint()
	var o spawnOptions
	for _, opt := range opts {
		opt.apply(&o)
	}
	p := c.ProcID()
	rt := c.rt
	rt.mon.Per[p].Spawns++
	c.sc.Charge(rt.cfg.Lat.Spawn)

	// Multiple OBJECT operands: place at the server homing the most
	// bytes; the rest are prefetched when the task starts (§4.1).
	st := rt.newSimTask()
	if o.nObj > 1 {
		objs := o.objs()
		best := pickHome(rt, objs)
		o.aff.ObjectObj = objs[best].addr
		for j, ob := range objs {
			if j != best {
				st.pre = append(st.pre, ob)
			}
		}
	}
	st.fn, st.fnN, st.i, st.mutex = fn, fnN, i, o.mutex

	class, server, slot, affObj := rt.sched.Place(o.aff, p)
	if server != p {
		c.sc.Charge(rt.cfg.Lat.EnqueueAway)
	}
	td := &st.td
	td.Class = class
	td.Server = server
	td.Slot = slot
	td.AffObj = affObj
	td.Scope = c.scope
	if td.Scope != nil {
		rt.sched.ScopeAdd(td.Scope)
	}
	rt.startSimTask(st, name, c.sc.Now())
}

// simTask is the pooled record of one simulated task: its scheduler
// descriptor, its engine task, its facade Ctx and its body, so spawning
// and running a task allocate nothing once the runtime's free list is
// warm. The engine enters every task through run, bound once when the
// record is made.
type simTask struct {
	td  core.TaskDesc
	t   sim.Task
	ctx Ctx // the running task's facade context, re-initialised per task

	fn    func(*Ctx)      // the body, or nil for a SpawnN member
	fnN   func(*Ctx, int) // a SpawnN member's body, run with index i
	i     int
	mutex *Monitor

	// pre holds the §4.1 prefetch operands. It slices preBuf until a
	// spawn names a fourth OBJECT operand; a longer slice is kept.
	pre    []sizedObj
	preBuf [2]sizedObj

	rt  *Runtime
	run func(*sim.Ctx) // the method value st.body
}

// newSimTask takes a record off the runtime's free list, or makes one.
// Coroutines run one at a time under the engine loop, so the free list
// needs no locking.
func (rt *Runtime) newSimTask() *simTask {
	if n := len(rt.taskFree); n > 0 {
		st := rt.taskFree[n-1]
		rt.taskFree[n-1] = nil
		rt.taskFree = rt.taskFree[:n-1]
		st.td = core.TaskDesc{}
		st.pre = st.pre[:0]
		return st
	}
	st := &simTask{rt: rt}
	st.pre = st.preBuf[:0]
	st.run = st.body
	return st
}

// startSimTask hands a filled record to the engine and the scheduler.
func (rt *Runtime) startSimTask(st *simTask, name string, now int64) {
	rt.eng.InitTask(&st.t, name, now, st.run)
	st.t.Data = &st.td
	st.td.T = &st.t
	rt.sched.Enqueue(&st.td, now)
}

// body runs one simulated task from its record.
func (st *simTask) body(sc *sim.Ctx) {
	rt, td := st.rt, &st.td
	cc := &st.ctx
	*cc = Ctx{sc: sc, rt: rt, scope: td.Scope}
	for _, ob := range st.pre {
		size := ob.size
		if size <= 0 {
			size = 64
		}
		cc.Prefetch(ob.addr, size)
	}
	if st.mutex != nil {
		rt.sched.Lock(sc, &st.mutex.m)
	}
	if st.fnN != nil {
		st.fnN(cc, st.i)
	} else {
		st.fn(cc)
	}
	if st.mutex != nil {
		rt.sched.Unlock(sc, &st.mutex.m)
	}
	if td.Scope != nil {
		rt.sched.ScopeDone(sc, td.Scope)
	}
	rt.sched.TraceDone(sc)
	rt.freeSimTask(st)
}

// freeSimTask recycles a record, dropping its references to the program,
// so a record on the free list has no body and no monitor. It is the
// last act of a task that completed: that task is off every queue and
// is never dispatched again. No stale slice event can reach
// the record's next task either: a slice event resumes only while
// p.cur == &st.t, and p.cur holds the task from the yield until that
// event fires (a failed processor's p.cur is cleared for good). Killed,
// panicked and blocked tasks never get here, so their descriptors stay
// valid for failure reporting (the deadlock graph and failover read
// Task.Data).
func (rt *Runtime) freeSimTask(st *simTask) {
	st.fn, st.fnN, st.mutex = nil, nil, nil
	rt.taskFree = append(rt.taskFree, st)
}

// SpawnN creates n sibling tasks running fn(c, i) for i in [0, n); opts,
// when non-nil, supplies member i's spawn options. Semantically it is
// exactly the loop `for i { Spawn(name, func(c){fn(c,i)}, opts(i)...) }`,
// and the simulator executes it as that literal loop, so converting a
// spawn loop leaves every simulated figure unchanged. The native backend
// instead publishes the burst as one batch — one queue publish and one
// wake decision instead of n (counted by SpawnBatches) — which is where
// spawn-heavy phases win.
//
// The slice opts returns is consumed before opts is called for the next
// member, so a caller may fill and return the same backing buffer every
// call rather than allocate one per member.
func (c *Ctx) SpawnN(name string, n int, fn func(*Ctx, int), opts func(i int) []SpawnOpt) {
	if c.nc != nil {
		c.spawnNNative(name, n, fn, opts)
		return
	}
	for i := 0; i < n; i++ {
		var o []SpawnOpt
		if opts != nil {
			o = opts(i)
		}
		c.spawnSim(name, nil, fn, i, o)
	}
}

// spawnNNative lowers a SpawnN burst onto the goroutine backend: each
// member's options resolve as a Spawn's do, and fn rides the whole batch
// as one shared payload, run per member through native Config.InvokeN
// with the member index.
func (c *Ctx) spawnNNative(name string, n int, fn func(*Ctx, int), opts func(i int) []SpawnOpt) {
	get := func(i int) (core.Affinity, *native.Monitor) {
		var o []SpawnOpt
		if opts != nil {
			o = opts(i)
		}
		return nativeOptions(c.rt, o)
	}
	c.nc.SpawnN(name, n, get, fn)
}

// nativeOptions resolves one native spawn's options to its affinity and
// monitor. The affinity resolution (including the multiple-object §4.1
// heuristic) matches the simulator's; prefetching is a no-op natively,
// so the non-chosen objects are simply dropped.
func nativeOptions(rt *Runtime, opts []SpawnOpt) (core.Affinity, *native.Monitor) {
	var o spawnOptions
	for _, opt := range opts {
		opt.apply(&o)
	}
	if o.nObj > 1 {
		objs := o.objs()
		o.aff.ObjectObj = objs[pickHome(rt, objs)].addr
	}
	var nm *native.Monitor
	if o.mutex != nil {
		nm = &o.mutex.nm
	}
	return o.aff, nm
}

// pickHome returns the index of the object whose home server holds the
// most affinity-weighted bytes (the first such object on a tie). A spawn
// names a handful of operands at most, so each one's server total is
// summed by rescanning the homes found so far instead of through a map.
func pickHome(rt *Runtime, objs []sizedObj) int {
	var buf [8]int
	homes := buf[:0]
	for _, ob := range objs {
		homes = append(homes, rt.Home(ob.addr))
	}
	best, bestBytes := 0, int64(-1)
	for i, sv := range homes {
		var bytes int64
		for j, ob := range objs {
			if homes[j] == sv {
				bytes += max(ob.size, 1)
			}
		}
		if bytes > bestBytes {
			best, bestBytes = i, bytes
		}
	}
	return best
}

// Prefetch issues a non-binding read prefetch of [addr, addr+size): the
// lines stream into this processor's caches while only a small issue
// cost is charged (the paper's §8 prefetching support).
func (c *Ctx) Prefetch(addr, size int64) {
	if c.nc != nil {
		return // the host hardware prefetches for itself
	}
	p := c.ProcID()
	cyc := c.rt.caches.Prefetch(p, c.sc.Now(), addr, size)
	c.rt.mon.Per[p].MemCycles += cyc
	c.sc.Charge(cyc)
}

// WaitFor runs body (in the current task) and then blocks until every
// task spawned within body's dynamic extent — including tasks spawned by
// descendant tasks outside any inner WaitFor — has completed. This is the
// paper's waitfor construct.
func (c *Ctx) WaitFor(body func()) {
	if c.nc != nil {
		c.nc.WaitFor(body)
		return
	}
	scope := &core.Scope{}
	old := c.scope
	c.scope = scope
	body()
	c.scope = old
	c.rt.sched.ScopeWait(c.sc, scope)
}

// SetClusterStealingOnly flips the cluster-stealing restriction while
// the program runs — the dynamic runtime flag of the paper's Panel
// Cholesky cluster-scheduling experiment (§6.3).
func (c *Ctx) SetClusterStealingOnly(on bool) {
	if c.nc != nil {
		c.rt.nat.SetClusterStealingOnly(on)
		return
	}
	c.rt.sched.SetClusterStealingOnly(on)
}

// Monitor serializes mutex functions on one object (COOL's monitor).
// Create with Runtime.NewMonitor or use the zero value for an object
// without a simulated address. On the native backend the monitor is a
// real mutex.
type Monitor struct {
	m  core.Monitor
	nm native.Monitor
}

// NewMonitor returns a monitor associated with the simulated object at
// addr (used for accounting; the zero Monitor works too). Like an array,
// it belongs to the runtime once Reset is called: a later run's
// NewMonitor may hand it out again.
func (rt *Runtime) NewMonitor(addr int64) *Monitor {
	rt.spaceMu.Lock()
	m := rt.warmLocked().monitor()
	rt.spaceMu.Unlock()
	*m = Monitor{m: core.Monitor{Addr: addr}}
	return m
}

// Lock acquires the monitor, blocking while another task holds it.
func (c *Ctx) Lock(m *Monitor) {
	if c.nc != nil {
		c.nc.Lock(&m.nm)
		return
	}
	c.rt.sched.Lock(c.sc, &m.m)
}

// Unlock releases the monitor.
func (c *Ctx) Unlock(m *Monitor) {
	if c.nc != nil {
		c.nc.Unlock(&m.nm)
		return
	}
	c.rt.sched.Unlock(c.sc, &m.m)
}

// Cond is a condition variable with Mesa semantics, used with a Monitor.
// On the native backend a waiting task blocks its worker goroutine (the
// simulator parks only the task); see DESIGN.md §9.
type Cond struct {
	c   core.Cond
	ncv native.Cond
}

// Wait atomically releases m and blocks until signalled, reacquiring m
// before returning.
func (c *Ctx) Wait(cv *Cond, m *Monitor) {
	if c.nc != nil {
		c.nc.Wait(&cv.ncv, &m.nm)
		return
	}
	c.rt.sched.Wait(c.sc, &cv.c, &m.m)
}

// Signal wakes the oldest waiter on cv, if any.
func (c *Ctx) Signal(cv *Cond) {
	if c.nc != nil {
		c.nc.Signal(&cv.ncv)
		return
	}
	c.rt.sched.Signal(c.sc, &cv.c)
}

// Broadcast wakes every waiter on cv.
func (c *Ctx) Broadcast(cv *Cond) {
	if c.nc != nil {
		c.nc.Broadcast(&cv.ncv)
		return
	}
	c.rt.sched.Broadcast(c.sc, &cv.c)
}
