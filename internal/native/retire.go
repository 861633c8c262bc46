package native

import (
	"math/bits"

	"github.com/coolrts/cool/internal/core"
	"github.com/coolrts/cool/internal/perfmon"
	"github.com/coolrts/cool/internal/trace"
)

// This file retires workers: the dead mask, the failover rule, and
// retireWith, the native twin of the simulator's FailServer.
// The concurrency ground rules are in fault.go.

// deadSet returns the retired workers, in the form the shared decisions
// of internal/core take.
func (rt *Runtime) deadSet() core.ProcSet { return core.ProcSet(rt.dead.Load()) }

// isDead reports whether worker id has been retired.
func (rt *Runtime) isDead(id int) bool { return rt.deadSet().Has(id) }

// aliveWorkers returns the number of workers not retired.
func (rt *Runtime) aliveWorkers() int {
	return len(rt.workers) - bits.OnesCount64(rt.dead.Load())
}

// AliveWorkers returns the number of workers not retired.
func (rt *Runtime) AliveWorkers() int { return rt.aliveWorkers() }

// failoverTarget picks the survivor for one task drained off a retired
// worker (core.Topo.Failover, spreading through the round-robin cursor)
// and, for a task-affinity set, records it as the set's home under the
// set's shard lock, so later members follow.
func (rt *Runtime) failoverTarget(t *task, ctr *perfmon.Counters) int {
	if t.Class != core.ClassTaskSet {
		return rt.topo.Failover(t.Class, t.server, -1, rt.deadSet(), rt.nextRR)
	}
	sh := rt.shardOf(t.AffObj)
	sh.lock(ctr)
	home, ok := sh.home[t.AffObj]
	if !ok {
		home = -1
	}
	home = rt.topo.Failover(t.Class, t.server, home, rt.deadSet(), rt.nextRR)
	sh.home[t.AffObj] = home
	sh.mu.Unlock()
	return home
}

// nextRR advances the round-robin cursor.
func (rt *Runtime) nextRR() int { return int(rt.rr.Add(1) - 1) }

// retireWith permanently stops worker w — the fault plan's kill, the
// native twin of the simulator's FailServer: mark the dead bit, drain
// every queued task under w's own lock, then reinsert each on the
// survivor failoverTarget picks. Whole task-affinity sets re-home as a
// unit under their shard lock, object-bound tasks move to the nearest
// survivor, everything else spreads round-robin. Runs on w's own
// goroutine at a top-level dispatch point (never mid-task), so there is
// no partially-run task to hand off.
//
// The dead bit is published while w.mu is held: a whole-set steal needs
// the victim's lock, and placeSet's TryLock fast path falls through to
// a slow path that revalidates the bit — so once the lock is taken here
// there is no window in which a set can be re-homed ONTO w or stolen
// half-accounted off it, which is what keeps SetSplits at zero through
// retirement. Every other insert (insertFrom, SpawnN's chains) re-checks
// the bit under this same lock, so it either lands before the drain and
// is swept up here, or sees the bit and reroutes.
//
// The drain must not hold w.mu while inserting into survivors: a thief
// concurrently whole-set-stealing via the in-order lock path could hold
// a lower-id worker's lock while waiting for w's, and an insert from
// under w.mu would wait on that thief's victim lock — a cycle. Draining
// into a slice first keeps the protocol's rule that no worker lock is
// taken while holding another outside the ordered stealSet path.
func (rt *Runtime) retireWith(w *worker) {
	bit := uint64(1) << uint(w.id)
	ctr := &rt.cfg.Mon.Per[w.id]
	ctr.FaultEvents++
	rt.trace(w, trace.KindFault, w.id, "proc-fail", 0)

	w.mu.Lock()
	var dead uint64
	for {
		old := rt.dead.Load()
		if dead = old | bit; rt.dead.CompareAndSwap(old, dead) {
			break
		}
	}
	rt.epoch.Add(1)
	drained := w.q.Drain(nil)
	// Every writer of the locked-structure hints holds w.mu, so the bulk
	// reset is safe; queued/stealable/queuedTotal are also moved by
	// lock-free thieves and so must shrink by exactly what this drain
	// removed, not be zeroed.
	w.lockedWork.Store(0)
	w.setQueued.Store(0)
	freely := 0
	for _, t := range drained {
		if freelyStealable(t) {
			freely++
		}
	}
	w.queued.Add(int64(-len(drained)))
	w.stealable.Add(int64(-freely))
	rt.queuedTotal.Add(int64(-len(drained)))
	w.mu.Unlock()

	// The deque drains outside the lock: thieves may still CAS its top,
	// so each pop unaccounts one task individually. Retirement runs on
	// w's own goroutine, making popBottom legal and — since no one else
	// ever pushes this deque — a nil return terminal (empty, or a thief
	// won the race for the last record).
	for t := w.deq.popBottom(); t != nil; t = w.deq.popBottom() {
		w.queued.Add(-1)
		w.stealable.Add(-1)
		rt.queuedTotal.Add(-1)
		drained = append(drained, t)
	}

	if bits.OnesCount64(dead) == len(rt.workers) {
		// No survivor to hand the work to (plan validation rules this
		// out): let Run return rather than wait on a done that can no
		// longer close.
		close(rt.poolEmpty)
		return
	}
	for _, t := range drained {
		name := t.name
		t.server = rt.failoverTarget(t, ctr)
		var tgt int
		if t.Class == core.ClassTaskSet {
			// placeSet follows the home failoverTarget chose (or a newer
			// one) under the shard lock, so the set moves whole.
			tgt = rt.placeSet(t, ctr)
		} else {
			tgt = rt.insertFrom(t, ctr, nil)
		}
		ctr.Redistributed++
		rt.trace(w, trace.KindRedistribute, w.id, name, int64(tgt))
		rt.wakeAfterEnqueue(tgt, w.id)
	}
}
