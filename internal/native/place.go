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

// lockWorkerCtr is lockWorker with an explicit contention sink: the
// acting worker's row, or a test's own counters.
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
func (rt *Runtime) placeSet(t *task, ctr *perfmon.Counters) int {
	obj := t.AffObj
	sh := rt.shardOf(obj)
	sh.lock(ctr)
	sv, ok := sh.home[obj]
	if !ok {
		sv = int(rt.rr.Add(1)-1) % rt.cfg.Procs
		sh.home[obj] = sv
	}
	if w := rt.workers[sv]; w.mu.TryLock() {
		t.server = sv
		rt.pushLocked(w, t)
		w.mu.Unlock()
		sh.mu.Unlock()
		rt.queuedTotal.Add(1)
		return sv
	}
	ctr.LockContention++
	sh.mu.Unlock()
	for {
		w := rt.workers[sv]
		rt.lockWorkerCtr(w, ctr)
		sh.lock(ctr)
		if sh.home[obj] == sv {
			t.server = sv
			rt.pushLocked(w, t)
			sh.mu.Unlock()
			w.mu.Unlock()
			rt.queuedTotal.Add(1)
			return sv
		}
		// A concurrent whole-set steal moved the set; chase its new home.
		sv = sh.home[obj]
		sh.mu.Unlock()
		w.mu.Unlock()
	}
}
