package native

import (
	"fmt"
	"sync"
)

// Reset re-arms a runtime whose previous Run completed cleanly so it
// can Run again without being rebuilt. The warm structures that make
// reuse cheaper than New survive: per-worker task-record freelists,
// the sized scratch slices, the victim rings, the slot arrays, and the
// shard table's map capacity. Everything the finished run touched —
// channels, counters, set homes — returns to its post-New value.
//
// Reset is legal only between runs: never concurrently with Run, and
// only after a clean completion. A failed run (deadline, panic) may
// have unwound workers with tasks still queued, and
// those records are unrecoverable — Reset refuses and the caller must
// rebuild. The perfmon monitor is shared with the embedding runtime
// and is NOT zeroed here; the caller owns counter lifecycles.
func (rt *Runtime) Reset() error {
	if !rt.ran {
		return nil // never ran: already pristine
	}
	rt.failMu.Lock()
	fail := rt.fail
	rt.failMu.Unlock()
	if fail != nil {
		return fmt.Errorf("native: Reset after a failed run (%v); rebuild the runtime instead", fail)
	}
	if q := rt.queuedTotal.Load(); q != 0 {
		return fmt.Errorf("native: Reset with %d task(s) still queued", q)
	}
	if l := rt.live.Load(); l != 0 {
		return fmt.Errorf("native: Reset with %d task(s) still live", l)
	}
	// Run has already joined every worker goroutine and the deadline
	// watcher, so plain stores are race-free.
	rt.rearm()
	return nil
}

// rearm puts every piece of per-run state at its start-of-run value. New
// calls it on the structures it just allocated and Reset on the ones a
// finished run left behind, which is what makes a reset runtime equal a
// fresh one by construction.
func (rt *Runtime) rearm() {
	rt.done = make(chan struct{})
	rt.doneOnce = sync.Once{}
	rt.stopc = make(chan struct{})
	rt.stopping.Store(false)

	rt.rr.Store(0)
	rt.parked.Store(0)
	rt.setSplits.Store(0)
	rt.elapsed.Store(0)

	rt.clusterOnly.Store(rt.pol.ClusterStealingOnly)

	// Set homes are per-run placements. Clearing the maps (not
	// reallocating) keeps their bucket capacity for the next run.
	for i := range rt.shards {
		sh := &rt.shards[i]
		for k := range sh.home {
			delete(sh.home, k)
		}
	}

	rt.gatherRecords()
	for _, w := range rt.workers {
		w.busyNS, w.idleNS = 0, 0
		w.events, w.dropped = w.events[:0], 0
		w.q.Cur = nil
		// Accounting hints must already be zero on a clean drain; store
		// (rather than assert) so a stale hint cannot poison the next run.
		w.queued.Store(0)
		w.lockedWork.Store(0)
		w.setQueued.Store(0)
		w.stealable.Store(0)
		// Drop a stale wake token so the next run's first park is honest.
		select {
		case <-w.wake:
		default:
		}
	}

	rt.ran = false
}

// gatherRecords moves every worker's freelist to the spare lists, so the
// next run's first spawns on any worker find the records the last run
// left on another one; short lists are joined up to freeListCap records,
// so the spare lists do not splinter run after run. No task is live, so
// every record the runtime kept is on the spare lists then. If the last
// run had to make records, it adds two lists per worker beyond them,
// within half of maxSpareLists (the rest is room for the lists workers
// hand over): records that a schedule strands on a slow worker's list
// (up to freeListCap−1 each) or a burst that outgrows the last one then
// come from the spare lists, not the heap, on the next run.
func (rt *Runtime) gatherRecords() {
	var joined recList
	made := 0
	for _, w := range rt.workers {
		if joined.n+w.free.n > freeListCap {
			rt.putSpare(joined)
			joined = recList{}
		}
		joined.appendList(w.free)
		w.free = recList{}
		made += w.made
		w.made = 0
	}
	if joined.n > 0 {
		rt.putSpare(joined)
	}
	if made == 0 {
		return
	}
	for range 2 * len(rt.workers) {
		if len(rt.spare) >= maxSpareLists/2 {
			return
		}
		var l recList
		recs := make([]task, freeListCap)
		for i := range recs {
			l.push(rt.initRecord(&recs[i]))
		}
		rt.putSpare(l)
	}
}
