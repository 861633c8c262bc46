package core

import "github.com/coolrts/cool/internal/sim"

// Desc returns the scheduler descriptor of the task running in ctx.
func Desc(ctx *sim.Ctx) *TaskDesc {
	return ctx.Task().Data.(*TaskDesc)
}

// Monitor serializes COOL mutex functions on an object. The zero value is
// an unlocked monitor; Addr associates it with a simulated object so
// locking can be charged to the memory system by higher layers.
type Monitor struct {
	Addr    int64
	owner   *TaskDesc
	waiters fifo
}

// Locked reports whether the monitor is currently held.
func (m *Monitor) Locked() bool { return m.owner != nil }

// Owner returns the descriptor of the task holding m (nil if unlocked).
func (m *Monitor) Owner() *TaskDesc { return m.owner }

// Waiters returns how many tasks are parked waiting to acquire m.
func (m *Monitor) Waiters() int { return m.waiters.len() }

// Lock acquires m for the running task, blocking (and yielding the
// processor to other tasks) while another task holds it.
func (s *Scheduler) Lock(ctx *sim.Ctx, m *Monitor) {
	ctx.SyncPoint()
	ctx.Charge(s.Cfg.Lat.LockOp)
	td := Desc(ctx)
	if m.owner == nil {
		m.owner = td
		return
	}
	if m.owner == td {
		panic("core: recursive monitor acquisition")
	}
	m.waiters.push(td)
	s.Mon.Per[ctx.Proc().ID].LockBlocks++
	s.TraceBlock(ctx)
	td.BlockedOn = m
	ctx.Block()
	td.BlockedOn = nil
	// Ownership was transferred to us by Unlock before we resumed.
}

// Unlock releases m, handing it to the oldest waiter if any.
func (s *Scheduler) Unlock(ctx *sim.Ctx, m *Monitor) {
	ctx.SyncPoint()
	ctx.Charge(s.Cfg.Lat.LockOp)
	if m.owner != Desc(ctx) {
		panic("core: unlocking a monitor the task does not hold")
	}
	if m.waiters.len() > 0 {
		w := m.waiters.pop()
		m.owner = w
		s.Resume(w, ctx.Now()+s.Cfg.Lat.Wakeup)
		return
	}
	m.owner = nil
}

// Cond is a COOL condition variable with Mesa (signal-and-continue)
// semantics, used with a Monitor.
type Cond struct {
	waiters fifo
}

// Wait atomically releases m and blocks until signalled, then reacquires
// m before returning.
func (s *Scheduler) Wait(ctx *sim.Ctx, c *Cond, m *Monitor) {
	td := Desc(ctx)
	c.waiters.push(td)
	s.Unlock(ctx, m)
	s.TraceBlock(ctx)
	td.BlockedOn = c
	ctx.Block()
	td.BlockedOn = nil
	s.Lock(ctx, m)
}

// Signal wakes the oldest waiter, if any.
func (s *Scheduler) Signal(ctx *sim.Ctx, c *Cond) {
	ctx.SyncPoint()
	if c.waiters.len() == 0 {
		return
	}
	s.Resume(c.waiters.pop(), ctx.Now()+s.Cfg.Lat.Wakeup)
}

// Broadcast wakes every waiter.
func (s *Scheduler) Broadcast(ctx *sim.Ctx, c *Cond) {
	ctx.SyncPoint()
	for c.waiters.len() > 0 {
		s.Resume(c.waiters.pop(), ctx.Now()+s.Cfg.Lat.Wakeup)
	}
}

// fifo is a queue of parked descriptors, oldest first, that reuses its
// backing array: popping advances head instead of reslicing the array
// away, and a push into a full array first slides the live entries down,
// so a contended monitor allocates only while its queue grows.
type fifo struct {
	q    []*TaskDesc
	head int
}

func (f *fifo) len() int { return len(f.q) - f.head }

func (f *fifo) push(td *TaskDesc) {
	if len(f.q) == cap(f.q) && f.head > 0 {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, td)
}

func (f *fifo) pop() *TaskDesc {
	td := f.q[f.head]
	f.q[f.head] = nil
	f.head++
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return td
}

// Scope implements COOL's waitfor: it counts every task created in its
// dynamic extent (spawns inherit the scope transitively) and lets one
// task block until the count drains to zero.
type Scope struct {
	count  int
	waiter *TaskDesc
}

// Pending returns the number of outstanding tasks in the scope.
func (sc *Scope) Pending() int { return sc.count }

// ScopeAdd records a task created inside sc.
func (s *Scheduler) ScopeAdd(sc *Scope) { sc.count++ }

// ScopeDone records completion of a task belonging to sc, waking the
// waitfor-blocked task when the scope drains.
func (s *Scheduler) ScopeDone(ctx *sim.Ctx, sc *Scope) {
	ctx.SyncPoint()
	sc.count--
	if sc.count < 0 {
		panic("core: waitfor scope count underflow")
	}
	if sc.count == 0 && sc.waiter != nil {
		w := sc.waiter
		sc.waiter = nil
		s.Resume(w, ctx.Now()+s.Cfg.Lat.Wakeup)
	}
}

// ScopeWait blocks the running task until the scope drains. Only one task
// may wait on a scope (the one that opened the waitfor).
func (s *Scheduler) ScopeWait(ctx *sim.Ctx, sc *Scope) {
	ctx.SyncPoint()
	if sc.count == 0 {
		return
	}
	if sc.waiter != nil {
		panic("core: multiple waiters on one waitfor scope")
	}
	td := Desc(ctx)
	sc.waiter = td
	s.TraceBlock(ctx)
	td.BlockedOn = sc
	ctx.Block()
	td.BlockedOn = nil
}
