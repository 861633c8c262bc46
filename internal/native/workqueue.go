package native

import (
	"github.com/coolrts/cool/internal/core"
	"github.com/coolrts/cool/internal/perfmon"
	"github.com/coolrts/cool/internal/trace"
)

// pushLocked adds a structured task to w's locked queues with full
// accounting. Called with w.mu held; the caller accounts queuedTotal
// after releasing the lock. Only structured tasks reach it (sets through
// placeSet, pinned and object-bound records through SpawnN's per-target
// chains); plain tasks ride the deque and inbox instead.
func (rt *Runtime) pushLocked(w *worker, t *task) {
	rt.pushStructLocked(w, t)
	w.queued.Add(1)
	if t.class == core.ClassTaskSet {
		w.stealable.Add(1)
	}
}

// pushStructLocked routes one record into w's locked structures (w.mu
// held): a slot queue for set members and object-bound tasks, the pinned
// queue otherwise. It moves only the lock-guarded occupancy hints — an
// inbox-drained record was fully accounted (queued, stealable,
// queuedTotal) when it was inserted.
func (rt *Runtime) pushStructLocked(w *worker, t *task) {
	if t.slot >= 0 {
		q := &w.slots[t.slot]
		q.push(t)
		w.nonEmpty.add(q)
	} else {
		w.pinned.push(t)
	}
	w.lockedWork.Add(1)
	if t.class == core.ClassTaskSet {
		w.setQueued.Add(1)
	}
}

// drainInbox moves everything other workers pushed into w's inbox since
// the last drain into the structures dispatch reads: plain records onto
// the owner's deque, pinned and object-bound records under the lock.
// Owner only; the lock is taken at most once and only when a structured
// record arrived. Inserts already accounted every counter, so the drain
// moves records without touching queued/stealable/queuedTotal. The
// swapped chain is newest-first; reversing through inboxScratch
// restores arrival order.
func (rt *Runtime) drainInbox(w *worker) {
	if w.inbox.empty() {
		return
	}
	chain := w.inbox.swapAll()
	if chain == nil {
		return
	}
	buf := w.inboxScratch[:0]
	for t := chain; t != nil; t = t.next {
		buf = append(buf, t)
	}
	locked := false
	for i := len(buf) - 1; i >= 0; i-- {
		t := buf[i]
		t.next = nil
		buf[i] = nil
		if t.class == core.ClassPlain {
			w.deq.pushBottom(t)
			continue
		}
		if !locked {
			rt.lockWorker(w, w.id)
			locked = true
		}
		rt.pushStructLocked(w, t)
	}
	if locked {
		w.mu.Unlock()
	}
	w.inboxScratch = buf[:0]
}

// sweepInbox drains a retired worker's inbox and re-inserts every record
// on a survivor. Called by the retirement drain and by any pusher that
// observed the dead bit after its push landed — the swapAll hand-off
// makes concurrent sweeps safe (each record appears in exactly one swap
// result), so the sweep is idempotent. The records were accounted
// against the dead target at insert time; each is unaccounted here and
// re-accounted by the fresh insert. Rerouting at this point is
// placement, not redistribution, so Redistributed is not counted (the
// distinction TestRedistributedCounterThroughReportNative pins down).
func (rt *Runtime) sweepInbox(w *worker, ctr *perfmon.Counters) {
	chain := w.inbox.swapAll()
	moved := false
	for chain != nil {
		t := chain
		chain = chain.next
		t.next = nil
		w.queued.Add(-1)
		if t.class == core.ClassPlain || t.class == core.ClassTaskSet {
			w.stealable.Add(-1)
		}
		rt.queuedTotal.Add(-1)
		t.server = rt.rerouteTarget(t)
		sv := rt.insertFrom(t, ctr, nil)
		rt.wakeTargets(1 << uint(sv))
		moved = true
	}
	if moved {
		rt.wakePolicy(ctr)
	}
}

// insert pushes t onto its server's queues, returning the worker it
// went to. actor is the id of the worker whose goroutine is running.
func (rt *Runtime) insert(t *task, actor int) int {
	return rt.insertFrom(t, &rt.cfg.Mon.Per[actor], rt.workers[actor])
}

// insertFrom is insert with an explicit contention sink and the worker
// whose goroutine is executing the call (nil when the caller is not a
// worker goroutine — the timekeeper, a retirement drain, an inbox
// sweep; self only enables the owner's lock-free fast path, it is never
// required for correctness).
//
// The insert counts, then publishes: the per-worker and machine hints
// are bumped before the record becomes visible, so any consumer that
// finds the record also finds counts covering it (consumers decrement
// after taking). The owner's own plain spawns go straight onto its
// deque bottom; everything else lands in the target's inbox with one
// CAS. A dead target is rerouted up front, and re-checked after the
// push: the retirement drain publishes the dead bit before sweeping, so
// a push that raced the sweep re-sweeps the inbox itself.
func (rt *Runtime) insertFrom(t *task, ctr *perfmon.Counters, self *worker) int {
	for {
		sv := t.server
		if rt.dead.Load() != 0 && rt.isDead(sv) {
			t.server = rt.rerouteTarget(t)
			continue
		}
		w := rt.workers[sv]
		w.queued.Add(1)
		if t.class == core.ClassPlain || t.class == core.ClassTaskSet {
			w.stealable.Add(1)
		}
		rt.queuedTotal.Add(1)
		if self == w && t.class == core.ClassPlain {
			w.deq.pushBottom(t)
			return sv
		}
		w.inbox.push(t)
		if rt.dead.Load() != 0 && rt.isDead(sv) {
			rt.sweepInbox(w, ctr)
		}
		return sv
	}
}

// insertAndWake inserts t and applies the wake policy. The task's name
// is captured before the insert publishes it: once queued, another
// worker may steal it, run it, and recycle the record.
func (rt *Runtime) insertAndWake(t *task, from int) {
	name := t.name
	server := rt.insert(t, from)
	rt.trace(rt.workers[from], trace.KindEnqueue, -1, name, int64(server))
	rt.wakeAfterEnqueue(server, from)
}

// take removes the next task for w: local queues first, then stealing.
//
// The common case runs without any lock: drain the inbox, probe the
// locked structures only when the lockedWork hint says they hold
// something, then pop the own deque — a plain spawn-and-run cycle is an
// inbox emptiness load plus one deque CAS. The dispatch priority mirrors
// the simulator's (current slot back to back, non-empty list, pinned
// queue, then the plain deque), which keeps P=1 native schedules
// token-identical to the simulated ones.
func (rt *Runtime) take(w *worker) *task {
	rt.drainInbox(w)
	if w.lockedWork.Load() > 0 {
		rt.lockWorker(w, w.id)
		t := rt.takeLocked(w)
		w.mu.Unlock()
		if t != nil {
			return t
		}
	}
	if t := w.deq.takeTop(); t != nil {
		rt.noteDequeued(w, 1)
		rt.noteRemoved(w, t)
		return t
	}
	return rt.steal(w)
}

// takeLocked pops from w's lock-guarded structures in the simulator's
// priority order: the slot being drained back to back, the non-empty
// list, then the pinned queue. Called with w.mu held.
func (rt *Runtime) takeLocked(w *worker) *task {
	if w.cur != nil && !w.cur.empty() {
		t := w.cur.pop()
		rt.afterSlotPop(w, w.cur)
		rt.noteLockedTaken(w, t)
		return t
	}
	w.cur = nil
	if q := w.nonEmpty.head; q != nil {
		t := q.pop()
		rt.afterSlotPop(w, q)
		if !q.empty() {
			w.cur = q
		}
		rt.noteLockedTaken(w, t)
		return t
	}
	if t := w.pinned.pop(); t != nil {
		rt.noteLockedTaken(w, t)
		return t
	}
	return nil
}

// noteLockedTaken accounts one task removed from w's locked structures
// (w.mu held).
func (rt *Runtime) noteLockedTaken(w *worker, t *task) {
	w.lockedWork.Add(-1)
	if t.class == core.ClassTaskSet {
		w.setQueued.Add(-1)
	}
	rt.noteDequeued(w, 1)
	rt.noteRemoved(w, t)
}

func (rt *Runtime) afterSlotPop(w *worker, q *taskQueue) {
	if q.empty() {
		w.nonEmpty.removeQ(q)
		if w.cur == q {
			w.cur = nil
		}
	}
}

// noteDequeued accounts n tasks removed from w's queues (w.mu held).
func (rt *Runtime) noteDequeued(w *worker, n int) {
	w.queued.Add(int64(-n))
	rt.queuedTotal.Add(int64(-n))
}

// noteRemoved maintains w's stealable hint for one removed task (w.mu
// held; pairs with the increment in pushLocked).
func (rt *Runtime) noteRemoved(w *worker, t *task) {
	if t.class == core.ClassPlain || t.class == core.ClassTaskSet {
		w.stealable.Add(-1)
	}
}
