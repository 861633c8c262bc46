package native

import (
	"sync"
	"sync/atomic"
	"time"
)

// scope counts the outstanding tasks spawned inside one waitfor block.
type scope struct {
	n      atomic.Int64
	waiter atomic.Pointer[worker]
}

// scopeDone retires one task of sc, waking the waiting worker when the
// scope drains. The decrement and the waiter load are both sequentially
// consistent, pairing with waitScope's store-then-recheck: either the
// waiter sees n==0 and never parks, or scopeDone sees the waiter and
// wakes it.
func (rt *Runtime) scopeDone(sc *scope) {
	if sc.n.Add(-1) != 0 {
		return
	}
	if w := sc.waiter.Load(); w != nil {
		rt.wakeWorker(w.id)
	}
}

// waitScope blocks until sc drains, helping: the worker keeps executing
// other ready tasks (local queues first, then steals) and parks only
// when there is nothing runnable anywhere. Helping is what lets a lone
// worker drain the very tasks its waitfor is blocked on.
func (rt *Runtime) waitScope(c *Ctx, sc *scope) {
	w := c.w
	misses := 0
	for {
		if rt.stopped() {
			// The run passed its deadline; the awaited tasks will never
			// finish. Unwind this worker out of the blocked task body —
			// execute's recovery swallows the sentinel.
			panic(stopUnwind{})
		}
		if sc.n.Load() == 0 {
			return
		}
		if t := rt.take(w); t != nil {
			misses = 0
			rt.runTask(w, t)
			continue
		}
		misses++
		// Drop any stale wake token before registering as the scope's
		// waiter — a leftover from an expired timed park would otherwise
		// end the park below instantly for one spurious round-trip.
		// Nothing is lost: every depositor publishes its condition first
		// (queue count, scope count), and both are re-read below after
		// the waiter store and the parked bit are visible.
		select {
		case <-w.wake:
		default:
		}
		sc.waiter.Store(w)
		if sc.n.Load() == 0 {
			sc.waiter.Store(nil)
			return
		}
		rt.setParked(w.id, true)
		queued := rt.queuedTotal.Load() > 0
		switch {
		case queued && misses < parkRetryLimit:
			// Fresh work may have raced the failed take; re-probe.
		case queued:
			// Only work this worker may not take is left; back off
			// instead of spinning, doubling the nap each miss (see
			// parkRetryLimit and stallBackoff).
			start := time.Now()
			rt.timedPark(w, stallBackoff(misses))
			w.idleNS += time.Since(start).Nanoseconds()
		case sc.n.Load() != 0:
			start := time.Now()
			select {
			case <-w.wake:
			case <-rt.done:
			case <-rt.stopc:
			}
			w.idleNS += time.Since(start).Nanoseconds()
		}
		rt.setParked(w.id, false)
		sc.waiter.Store(nil)
	}
}

// Monitor is a native COOL monitor: a real mutex. Mutex functions lock
// it for their whole body; explicit Lock/Unlock bracket finer regions.
type Monitor struct {
	mu sync.Mutex
}

// NewMonitor creates a monitor.
func NewMonitor() *Monitor { return &Monitor{} }

// Lock acquires m, counting acquisitions that had to block against the
// calling worker (the simulator's LockBlocks analogue).
func (c *Ctx) Lock(m *Monitor) {
	if m.mu.TryLock() {
		return
	}
	c.rt.cfg.Mon.Per[c.w.id].LockBlocks++
	m.mu.Lock()
}

// Unlock releases m.
func (c *Ctx) Unlock(m *Monitor) { m.mu.Unlock() }

// Cond is a Mesa-style condition variable used with a Monitor. Unlike
// the simulator's Cond — which parks only the task and frees the
// processor — a native Wait blocks the calling worker goroutine until
// signalled. DESIGN.md §9 documents this semantic difference; no
// registered app uses condition variables. The zero value is ready.
type Cond struct {
	mu sync.Mutex
	ws []chan struct{}
}

// Wait atomically releases monitor m and blocks until Signal or
// Broadcast, then reacquires m before returning. Callers must hold the
// monitor and re-test their predicate (Mesa semantics). A run stopped
// at its deadline unwinds the waiter instead of leaving it blocked
// forever on a signal that will never come.
func (c *Ctx) Wait(cv *Cond, m *Monitor) {
	ch := make(chan struct{})
	cv.mu.Lock()
	cv.ws = append(cv.ws, ch)
	cv.mu.Unlock()
	held := c.heldMon == m
	if held {
		c.heldMon = nil // m is released; the deferred unlock must not fire
	}
	c.Unlock(m)
	select {
	case <-ch:
	case <-c.rt.stopc:
		panic(stopUnwind{})
	}
	c.Lock(m)
	if held {
		c.heldMon = m
	}
}

// Signal wakes one waiter, if any.
func (c *Ctx) Signal(cv *Cond) {
	cv.mu.Lock()
	if len(cv.ws) > 0 {
		close(cv.ws[0])
		cv.ws = cv.ws[1:]
	}
	cv.mu.Unlock()
}

// Broadcast wakes every waiter.
func (c *Ctx) Broadcast(cv *Cond) {
	cv.mu.Lock()
	for _, ch := range cv.ws {
		close(ch)
	}
	cv.ws = nil
	cv.mu.Unlock()
}
