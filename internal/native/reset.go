package native

import (
	"fmt"
	"sync"

	"github.com/coolrts/cool/internal/perfmon"
)

// Reset re-arms a runtime whose previous Run completed cleanly so it
// can Run again without being rebuilt. The warm structures that make
// reuse cheaper than New survive: per-worker task-record freelists,
// the sized scratch slices, the victim rings' arrays, the slot arrays,
// and the shard table's map capacity. Everything the finished run
// touched — channels, counters, the dead mask, set homes, pool and SLO
// state, the fault plan's consumed event cursors — returns to its
// post-New value.
//
// Reset is legal only between runs: never concurrently with Run, and
// only after a clean completion. A failed run (deadline, watchdog,
// panic, abort) may have unwound workers with tasks still queued, and
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

	// Run has already joined every worker goroutine (allExited) and the
	// timekeeper. The one straggler possible is a worker goroutine
	// between closing allExited and releasing poolMu in workerExited —
	// holding poolMu for the whole re-arm orders every store there after
	// that last release, so plain stores are race-free.
	rt.poolMu.Lock()
	defer rt.poolMu.Unlock()
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
	rt.stopOnce = sync.Once{}
	rt.allExited = make(chan struct{})
	rt.idleExit = make(chan struct{})
	rt.idleOnce = sync.Once{}

	rt.rr.Store(0)
	rt.parked.Store(0)
	rt.setSplits.Store(0)
	rt.completed.Store(0)
	rt.elapsed.Store(0)
	rt.epoch.Store(0)

	rt.clusterOnly.Store(rt.pol.ClusterStealingOnly)

	// Spare slots reserved by MaxProcs are dead until AddWorkers claims
	// them (every insert path already reroutes around dead workers, so
	// the spares need no special cases); everyone else is alive.
	var spareMask uint64
	for i := rt.cfg.Procs; i < rt.np; i++ {
		spareMask |= 1 << uint(i)
	}
	rt.dead.Store(spareMask)

	// Set homes are per-run placements. Clearing the maps (not
	// reallocating) keeps their bucket capacity for the next run.
	for i := range rt.shards {
		sh := &rt.shards[i]
		for k := range sh.home {
			delete(sh.home, k)
		}
	}

	rt.poolStarted, rt.poolExited = 0, 0
	rt.joining, rt.running = false, false
	rt.poolEvents = rt.poolEvents[:0]
	rt.addIdx = 0

	rt.shedFloor.Store(0)
	for i := range rt.prioLive {
		rt.prioLive[i].Store(0)
	}

	// A clean run drained every retry (retried tasks stay live until
	// they complete), but truncate defensively.
	rt.retries.mu.Lock()
	rt.retries.items = rt.retries.items[:0]
	rt.retries.mu.Unlock()
	rt.tkScratch = perfmon.Counters{}

	// Arm the fault plan from scratch: armFaults builds the per-worker
	// event state (consumed cursors, flaky hit marks, slow windows), the
	// injector's spawn sequence numbers, and addTimes.
	rt.addTimes = rt.addTimes[:0]
	rt.inj = nil
	for _, w := range rt.workers {
		w.fev = nil
	}
	if rt.cfg.Faults != nil {
		rt.armFaults(rt.cfg.Faults)
	}

	for _, w := range rt.workers {
		w.drainReq.Store(0)
		w.ringEpoch = -1
		w.busyNS, w.idleNS = 0, 0
		w.events = w.events[:0]
		w.cur = nil
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
