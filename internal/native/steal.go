package native

import (
	"github.com/coolrts/cool/internal/core"
	"github.com/coolrts/cool/internal/trace"
)

// steal scans victims for work, preferring same-cluster victims when
// the policy asks for it. There is no global steal lock: concurrent
// thieves probing different victims proceed in parallel, and each probe
// synchronizes only with the two workers and (for a set move) the one
// set-table shard involved.
func (rt *Runtime) steal(w *worker) *task {
	if rt.pol.DisableStealing || rt.queuedTotal.Load() == 0 {
		return nil
	}
	first, second := rt.victimRings(w).Order(rt.pol.ClusterStealFirst, rt.clusterOnly.Load())
	if t := rt.stealScan(w, first); t != nil {
		return t
	}
	return rt.stealScan(w, second)
}

// victimRings returns w's probe order, rebuilt first if pool membership
// changed since it was built (once, for a fixed healthy pool). Owner
// goroutine only. The dead mask read here may already be newer than the
// epoch, which only means the next call rebuilds again; a momentarily
// stale ring is only an inefficiency, since stealScan's queued == 0 skip
// keeps dead victims from yielding work.
func (rt *Runtime) victimRings(w *worker) *core.Rings {
	if e := rt.epoch.Load(); e != w.ringEpoch {
		w.ringEpoch = e
		w.rings.Build(rt.topo, w.id, rt.deadSet())
	}
	return &w.rings
}

// stealScan probes one victim ring in order. A probe that examined a
// victim and came back empty-handed — the victim drained meanwhile, or
// holds only work the steal rules refuse — counts as a failed steal.
func (rt *Runtime) stealScan(w *worker, ring []int) *task {
	ctr := &rt.cfg.Mon.Per[w.id]
	for _, vid := range ring {
		v := rt.workers[vid]
		q := v.queued.Load()
		if q == 0 {
			continue
		}
		if q < 2 && v.stealable.Load() == 0 {
			// The victim's one queued task is pinned or object-bound;
			// every steal rule refuses it from a non-backlogged victim,
			// so the probe (and its lock) would be wasted.
			continue
		}
		ctr.StealTries++
		rt.mirror.stealTries.n.Add(1)
		t := rt.stealFrom(v, w)
		if t == nil {
			ctr.FailedSteals++
			rt.mirror.failedSteals.n.Add(1)
			continue
		}
		if rt.topo.SameCluster(w.id, vid) {
			ctr.StealsLocal++
			rt.mirror.stealsLocal.n.Add(1)
		} else {
			ctr.StealsRemote++
			rt.mirror.stealsRemote.n.Add(1)
		}
		rt.trace(w, trace.KindSteal, w.id, t.name, int64(vid))
		return t
	}
	return nil
}

// stealFrom takes work from victim v for thief w, with the paper's
// preference order: a whole task-affinity set, a plain task, and finally
// (reluctantly) one object-bound or pinned task from a backlogged
// victim.
//
// The probe is ordered by cost: the sets-first phase takes the victim's
// lock only when the setQueued hint says a set is queued; a plain steal
// off the victim's deque is a single CAS on its top; and only what is
// left — plain records other goroutines inserted and the backlog-gated
// reluctant rules — pays for the victim's mutex. Single-task steals hand
// the task straight to the thief's goroutine, so the thief's own queues
// are never touched; only a whole-set move adds the thief's lock
// (stealSet, in ascending global id order — the deadlock-avoidance
// protocol every two-worker path follows) plus the one set-table shard
// involved.
func (rt *Runtime) stealFrom(v, w *worker) *task {
	if rt.pol.StealWholeSets && v.setQueued.Load() > 0 {
		rt.lockWorker(v, w.id)
		t := rt.stealSet(v, w)
		v.mu.Unlock()
		if t != nil {
			return t
		}
	}
	if t := v.deq.takeTop(); t != nil {
		rt.noteDequeued(v, 1)
		rt.noteRemoved(v, t)
		return t
	}
	return rt.stealLocked(v, w)
}

// stealLocked applies the simulator's single-task rules (core
// Scheduler.stealFrom) to v's locked structures: scan the locked plain
// queue past pinned tasks for a freely stealable plain record, then put
// the reluctant-steal gate (core.Policy.MayStealHead) to that queue's
// head and to each slot head; a lone set member the gate lets through is
// a deliberate, counted split. The lock-free check first rejects the
// common nothing-stealable case — the victim's one queued task is pinned
// or object-bound — without touching v's mutex.
func (rt *Runtime) stealLocked(v, w *worker) *task {
	if v.lockedWork.Load() == 0 {
		return nil
	}
	if v.queued.Load() < 2 && v.stealable.Load() == 0 {
		return nil
	}
	rt.lockWorker(v, w.id)
	defer v.mu.Unlock()
	// stealable never undercounts (inserts count before they publish,
	// takers decrement after), so zero under the lock means no plain
	// record here and spares the walk past a long run of pinned tasks.
	if v.stealable.Load() > 0 {
		for t := v.pinned.head; t != nil; t = t.next {
			if t.class == core.ClassPlain {
				v.pinned.remove(t)
				rt.noteLockedTaken(v, t)
				return t
			}
		}
	}
	backlog := int(v.queued.Load())
	if t := v.pinned.head; t != nil && rt.pol.MayStealHead(t.class, backlog) {
		v.pinned.remove(t)
		rt.noteLockedTaken(v, t)
		return t
	}
	for q := v.nonEmpty.head; q != nil; q = q.nextQ {
		head := q.head
		if head == nil || !rt.pol.MayStealHead(head.class, backlog) {
			continue
		}
		if head.class == core.ClassTaskSet {
			rt.setSplits.Add(1)
		}
		q.remove(head)
		rt.afterSlotPop(v, q)
		rt.noteLockedTaken(v, head)
		return head
	}
	return nil
}

// stealSet moves one whole task-affinity set from v to thief w: drain
// every member, re-home the set under its shard lock, keep the head for
// the thief to run and queue the rest behind it for back-to-back
// servicing. Called with v.mu held; returns with v.mu still held.
//
// The move needs both worker locks plus the set's shard. A cheap peek
// under v.mu alone rejects the common no-set-queued case before the
// thief's lock is ever taken. Acquiring w.mu second is in order when
// v.id < w.id; out of order it is tried without blocking (TryLock
// cannot deadlock), and on failure both locks are dropped and retaken
// in ascending id order — after which the peek is stale and the scan
// below revalidates everything from scratch.
func (rt *Runtime) stealSet(v, w *worker) *task {
	found := false
	for q := v.nonEmpty.head; q != nil; q = q.nextQ {
		if h := q.head; h != nil && h.class == core.ClassTaskSet {
			found = true
			break
		}
	}
	if !found {
		return nil
	}
	ctr := &rt.cfg.Mon.Per[w.id]
	if v.id < w.id {
		rt.lockWorker(w, w.id)
	} else if !w.mu.TryLock() {
		ctr.LockContention++
		rt.mirror.lockContention.n.Add(1)
		v.mu.Unlock()
		rt.lockWorker(w, w.id)
		rt.lockWorker(v, w.id)
	}
	defer w.mu.Unlock()
	for q := v.nonEmpty.head; q != nil; q = q.nextQ {
		head := q.head
		if head == nil || head.class != core.ClassTaskSet {
			continue
		}
		obj := head.affObj
		sh := rt.shardOf(obj)
		sh.lock(rt, ctr)
		// Queued membership at v implies the shard records v as the
		// set's home (inserts validate under the shard lock, moves
		// drain the victim before releasing it); assert rather than
		// assume — a violation would be a split in the making.
		if sh.home[obj] != v.id {
			rt.setSplits.Add(1)
		}
		sh.home[obj] = w.id
		moved := w.setScratch[:0]
		for {
			t := q.popMatching(obj)
			if t == nil {
				break
			}
			moved = append(moved, t)
		}
		rt.afterSlotPop(v, q)
		rt.noteDequeued(v, len(moved))
		// popMatching matches by object, so the move can carry
		// object-bound tasks naming the set's object along with the set
		// members; the stealable/setQueued hints count only some
		// classes, so they are maintained per task.
		for _, t := range moved {
			rt.noteRemoved(v, t)
		}
		v.lockedWork.Add(-int64(len(moved)))
		for _, t := range moved {
			if t.class == core.ClassTaskSet {
				v.setQueued.Add(-1)
			}
		}
		sh.mu.Unlock()
		first := moved[0]
		first.server = w.id
		if len(moved) > 1 {
			for _, t := range moved[1:] {
				t.server = w.id
				tq := &w.slots[t.slot]
				tq.push(t)
				w.nonEmpty.add(tq)
				if freelyStealable(t) {
					w.stealable.Add(1)
				}
				w.lockedWork.Add(1)
				if t.class == core.ClassTaskSet {
					w.setQueued.Add(1)
				}
			}
			w.queued.Add(int64(len(moved) - 1))
			w.cur = &w.slots[first.slot]
			rt.queuedTotal.Add(int64(len(moved) - 1))
		}
		w.setScratch = moved[:0]
		ctr.SetSteals++
		rt.mirror.setSteals.n.Add(1)
		return first
	}
	return nil
}
