package native

import (
	"github.com/coolrts/cool/internal/core"
	"github.com/coolrts/cool/internal/perfmon"
)

// placeTask fills t's placement fields: round-robin in Base mode, Table
// 1 (core.Topo.Place) otherwise. A task-affinity set member comes back
// with server -1; placeSet resolves its home and inserts it, under the
// set's shard.
func (rt *Runtime) placeTask(t *task, a core.Affinity, spawner int) {
	if rt.pol.IgnoreHints {
		t.Class, t.server = core.ClassPlain, int(rt.rr.Add(1)-1)%rt.cfg.Procs
		return
	}
	t.Class, t.server, t.Slot, t.AffObj = rt.topo.Place(a, spawner, rt.cfg.Home)
}

// lockWorker acquires w's queue mutex, counting a missed TryLock fast
// path against the acting worker's row (actor is the id of the worker
// whose goroutine is running — each row is still written only by its
// own goroutine).
func (rt *Runtime) lockWorker(w *worker, actor int) {
	rt.lockWorkerCtr(w, &rt.cfg.Mon.Per[actor])
}

// lockWorkerCtr is lockWorker with an explicit contention sink, for
// callers without a perfmon row of their own (the timekeeper goroutine
// charges its scratch counters to keep the one-writer-per-row rule).
func (rt *Runtime) lockWorkerCtr(w *worker, ctr *perfmon.Counters) {
	if w.mu.TryLock() {
		return
	}
	ctr.LockContention++
	w.mu.Lock()
}

// placeSet places and inserts one task-affinity set member (class, slot
// and set object already filled by placeTask), returning the server it
// went to. The set's home is resolved under its shard
// lock; while that lock is held no whole-set steal can re-home the set,
// so if the home worker's lock can be grabbed without blocking
// (TryLock — which cannot deadlock even against the worker-before-shard
// global order, because it never waits) the insert completes in one
// shard acquisition. Otherwise the placement falls back to a retry
// loop that takes the locks in the global order (worker, then shard)
// and revalidates the home: if a concurrent whole-set steal re-homed
// the set in between, the placement chases the new home instead of
// splitting the set.
//
// Worker retirement adds one more reason to revalidate: a home may be
// dead (checked under the shard lock, and re-checked under the home
// worker's queue lock — the retire protocol publishes the dead bit
// before draining, so an insert that acquires the queue lock after the
// drain always sees it). A dead home is re-homed under the shard lock to
// the nearest survivor — the reroute rule of insertFrom and of the
// simulator — and every member chases the same record, so the set
// moves whole. The dead checks cost one atomic load when no worker has
// retired.
func (rt *Runtime) placeSet(t *task, ctr *perfmon.Counters) int {
	obj := t.AffObj
	sh := rt.shardOf(obj)
	for {
		sh.lock(ctr)
		sv, ok := sh.home[obj]
		if !ok {
			sv = int(rt.rr.Add(1)-1) % rt.cfg.Procs
		}
		if rt.isDead(sv) {
			sv = rt.topo.NearestAlive(sv, rt.deadSet())
		}
		sh.home[obj] = sv
		if w := rt.workers[sv]; w.mu.TryLock() {
			if !rt.isDead(sv) {
				t.server = sv
				rt.pushLocked(w, t)
				w.mu.Unlock()
				sh.mu.Unlock()
				rt.queuedTotal.Add(1)
				return sv
			}
			// The home retired between the shard check and the queue
			// lock; the retry re-homes it under the shard lock.
			w.mu.Unlock()
			sh.mu.Unlock()
			continue
		}
		ctr.LockContention++
		sh.mu.Unlock()
		for {
			w := rt.workers[sv]
			rt.lockWorkerCtr(w, ctr)
			sh.lock(ctr)
			if sh.home[obj] == sv && !rt.isDead(sv) {
				t.server = sv
				rt.pushLocked(w, t)
				sh.mu.Unlock()
				w.mu.Unlock()
				rt.queuedTotal.Add(1)
				return sv
			}
			// A concurrent whole-set steal moved the set, or the home
			// retired; chase the new (live) home.
			sv = rt.topo.NearestAlive(sh.home[obj], rt.deadSet())
			sh.home[obj] = sv
			sh.mu.Unlock()
			w.mu.Unlock()
		}
	}
}
