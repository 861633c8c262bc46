package native

import (
	"github.com/coolrts/cool/internal/core"
	"github.com/coolrts/cool/internal/perfmon"
	"github.com/coolrts/cool/internal/trace"
)

// pushLocked adds a task to w's locked queues with full accounting.
// Called with w.mu held; the caller accounts queuedTotal after releasing
// the lock.
func (rt *Runtime) pushLocked(w *worker, t *task) {
	var n lockedCounts
	n.link(w, t)
	n.apply(w)
}

// lockedCounts tallies the hint counters of records linked into one
// worker's locked queues, so a run of inserts under one lock hold pays
// one atomic Add per counter (apply) instead of three or four per
// record. Lock-free readers cannot tell the difference: they see the
// counts no later than the unlock that publishes the records.
type lockedCounts struct {
	n, sets, stealable int64
}

// link puts t in w's locked queues — a slot queue for set members and
// object-bound tasks, the locked plain queue for pinned tasks and for
// plain records another goroutine inserted — and tallies it. Called with
// w.mu held; apply must follow before the unlock.
func (n *lockedCounts) link(w *worker, t *task) {
	w.q.Push(&t.Link)
	n.n++
	if t.Class == core.ClassTaskSet {
		n.sets++
	}
	if freelyStealable(t) {
		n.stealable++
	}
}

// apply publishes the tallied counts to w's hints (w.mu held).
func (n *lockedCounts) apply(w *worker) {
	w.lockedWork.Add(n.n)
	w.queued.Add(n.n)
	if n.sets != 0 {
		w.setQueued.Add(n.sets)
	}
	if n.stealable != 0 {
		w.stealable.Add(n.stealable)
	}
}

// freelyStealable reports whether any thief may take t outright — the
// tasks a worker's stealable hint counts.
func freelyStealable(t *task) bool {
	return t.Class == core.ClassPlain || t.Class == core.ClassTaskSet
}

// insert pushes t onto its server's queues, returning the worker it
// went to. actor is the id of the worker whose goroutine is running.
func (rt *Runtime) insert(t *task, actor int) int {
	return rt.insertFrom(t, &rt.cfg.Mon.Per[actor], rt.workers[actor])
}

// insertFrom is insert with an explicit contention sink and the worker
// whose goroutine is executing the call (nil when the caller is not a
// worker goroutine; self only enables the owner's lock-free fast path,
// it is never required for correctness).
//
// There are two ways in. The owner's own plain spawns go onto its deque
// bottom, counted before the publishing store so a thief that finds the
// record also finds counts covering it. Everything else — structured
// records from anyone, plain records from another goroutine — goes under
// the target's lock.
func (rt *Runtime) insertFrom(t *task, ctr *perfmon.Counters, self *worker) int {
	sv := t.server
	w := rt.workers[sv]
	if self == w && t.Class == core.ClassPlain {
		w.queued.Add(1)
		w.stealable.Add(1)
		rt.queuedTotal.Add(1)
		w.deq.pushBottom(t)
		return sv
	}
	rt.lockWorkerCtr(w, ctr)
	rt.pushLocked(w, t)
	w.mu.Unlock()
	rt.queuedTotal.Add(1)
	return sv
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
// The common case runs without any lock: probe the locked structures
// only when the lockedWork hint says they hold something, then pop the
// own deque — a plain spawn-and-run cycle is one hint load plus one
// deque CAS. The dispatch priority mirrors the simulator's (current slot
// back to back, non-empty list, locked plain queue, then the deque),
// which keeps P=1 native schedules token-identical to the simulated
// ones.
func (rt *Runtime) take(w *worker) *task {
	if w.lockedWork.Load() > 0 {
		rt.lockWorker(w, w.id)
		if t := w.q.Take(); t != nil {
			rt.noteLockedTaken(w, t)
			w.mu.Unlock()
			return t
		}
		w.mu.Unlock()
	}
	if t := w.deq.takeTop(); t != nil {
		rt.noteDequeued(w, 1)
		rt.noteRemoved(w, t)
		return t
	}
	return rt.steal(w)
}

// noteLockedTaken accounts one task removed from w's locked structures
// (w.mu held).
func (rt *Runtime) noteLockedTaken(w *worker, t *task) {
	w.lockedWork.Add(-1)
	if t.Class == core.ClassTaskSet {
		w.setQueued.Add(-1)
	}
	rt.noteDequeued(w, 1)
	rt.noteRemoved(w, t)
}

// noteDequeued accounts n tasks removed from w's queues (w.mu held).
func (rt *Runtime) noteDequeued(w *worker, n int) {
	w.queued.Add(int64(-n))
	rt.queuedTotal.Add(int64(-n))
}

// noteRemoved maintains w's stealable hint for one removed task (w.mu
// held; pairs with the increment in pushLocked).
func (rt *Runtime) noteRemoved(w *worker, t *task) {
	if freelyStealable(t) {
		w.stealable.Add(-1)
	}
}
