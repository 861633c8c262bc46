package native

import (
	"container/heap"
	"sync"
	"sync/atomic"
	"time"

	"github.com/coolrts/cool/internal/core"
	"github.com/coolrts/cool/internal/fault"
	"github.com/coolrts/cool/internal/trace"
)

// This file applies the fault layer on the native backend: wall-clock
// fault events (worker retirement, slowdowns, stalls, flaky windows),
// the plan's injector (planted panics and launch aborts, flaky strikes),
// affinity-aware retries with backoff, run deadlines, and a no-progress
// watchdog. Every fault decision is made once, for both engines: which
// launch a plan strikes and what a stopped run reports in
// internal/fault, the failover, retry target and queue snapshot in
// core.Topo. Simulated cycles read as wall-clock nanoseconds; the
// differences are documented in DESIGN.md §9.
//
// Concurrency ground rules, extending the protocol of DESIGN.md §10:
//
//   - A retired worker is marked in the atomic dead mask BEFORE its
//     queues are drained under its own lock. Any insert that acquires
//     the target's queue lock after the drain began observes the dead
//     bit (sequentially consistent atomic published before the mutex
//     acquisition) and reroutes; any insert that completed earlier is
//     swept up by the drain. No task is lost in the race between
//     placement and retirement.
//   - Timed fault events (slowdown, stall, fail, flaky) are applied by the
//     victim worker's own goroutine at its dispatch points, so the
//     fault counters keep the one-writer-per-row perfmon contract.
//   - The timekeeper goroutine delivers due retries and fires
//     deadline/watchdog stops. It never writes a perfmon row (retries
//     are counted by the aborting worker; the timekeeper's lock
//     contention goes to a private scratch row).

// workerFaults is one worker's share of the fault plan's timed events.
// It is written only by that worker's own goroutine (pending events are
// consumed in order at dispatch points). idx is atomic only because the
// timekeeper peeks at it to decide whether the worker has a due event
// worth waking it for — the worker remains the sole writer.
type workerFaults struct {
	pending []fault.Event // timed slowdown/stall/fail/flaky events, sorted by At
	idx     atomic.Int32  // next pending event to apply

	slowFrom, slowUntil, slowFactor int64 // active slowdown window
}

// retryItem is one backoff-delayed relaunch.
type retryItem struct {
	due    int64 // nanoseconds since Run start
	t      *task
	target int
}

// retryQueue is the mutex-guarded min-heap of pending retries, filled
// by aborting workers and drained by the timekeeper.
type retryQueue struct {
	mu    sync.Mutex
	items retryHeap
}

type retryHeap []retryItem

func (h retryHeap) Len() int           { return len(h) }
func (h retryHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h retryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *retryHeap) Push(x any)        { *h = append(*h, x.(retryItem)) }
func (h *retryHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func (q *retryQueue) add(it retryItem) {
	q.mu.Lock()
	heap.Push(&q.items, it)
	q.mu.Unlock()
}

// popDue removes and returns one item due at or before now, or ok=false.
func (q *retryQueue) popDue(now int64) (retryItem, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 || q.items[0].due > now {
		return retryItem{}, false
	}
	return heap.Pop(&q.items).(retryItem), true
}

// armFaults builds the plan's injector and partitions its timed events
// into per-worker state. MemDegrade events are dropped: the native
// backend has no memory system to degrade (documented in DESIGN.md §9).
func (rt *Runtime) armFaults(p *fault.Plan) {
	rt.inj = fault.NewInjector(p, len(rt.workers))
	for _, ev := range p.Events {
		switch ev.Kind {
		case fault.Slowdown, fault.Stall, fault.Fail, fault.Flaky:
			w := rt.workers[ev.Proc]
			if w.fev == nil {
				w.fev = &workerFaults{}
			}
			w.fev.pending = append(w.fev.pending, ev)
		}
	}
	for _, w := range rt.workers {
		if w.fev == nil {
			continue
		}
		// Insertion sort keeps equal-At events applying in plan order.
		evs := w.fev.pending
		for a := 1; a < len(evs); a++ {
			for b := a; b > 0 && evs[b].At < evs[b-1].At; b-- {
				evs[b], evs[b-1] = evs[b-1], evs[b]
			}
		}
	}
}

// checkFaults applies this worker's due timed fault events at a
// dispatch point, returning true when the worker retired (the caller
// must exit its loop). topLevel distinguishes the worker's main loop
// from a waitfor helping loop: a helping worker is inside a task body
// it must eventually resume, so a due Fail event is deferred (left
// pending, blocking later events — just as death would) until the
// worker is back at top level. Runs on w's own goroutine only.
func (rt *Runtime) checkFaults(w *worker, topLevel bool) bool {
	fv := w.fev
	if fv == nil || int(fv.idx.Load()) >= len(fv.pending) {
		return false
	}
	now := rt.nowNS()
	ctr := &rt.cfg.Mon.Per[w.id]
	for i := int(fv.idx.Load()); i < len(fv.pending) && fv.pending[i].At <= now; i = int(fv.idx.Load()) {
		ev := fv.pending[i]
		fv.idx.Store(int32(i + 1))
		switch ev.Kind {
		case fault.Slowdown:
			fv.slowFrom, fv.slowFactor = ev.At, ev.Factor
			if ev.Cycles > 0 {
				fv.slowUntil = ev.At + ev.Cycles
			} else {
				fv.slowUntil = 1 << 62
			}
			ctr.FaultEvents++
			rt.trace(w, trace.KindFault, w.id, "slowdown", ev.Factor)
		case fault.Stall:
			ctr.FaultEvents++
			rt.trace(w, trace.KindFault, w.id, "stall", ev.Cycles)
			rt.sleep(w, time.Duration(ev.Cycles))
		case fault.Flaky:
			// The window opens: the injector strikes launches on w inside
			// it; it is counted once, here, as the simulator counts it.
			ctr.FaultEvents++
			rt.trace(w, trace.KindFault, w.id, "flaky", ev.Cycles)
		case fault.Fail:
			if !topLevel {
				fv.idx.Store(int32(i))
				return false
			}
			rt.retireWith(w)
			return true
		}
		now = rt.nowNS()
	}
	return false
}

// slowdownPenalty returns the extra time a task that started at startNS
// and ran for durNS owes to an active slowdown window on this worker —
// (factor-1)× the task's own duration, clamped to the window's end so a
// bounded straggler window cannot stall the worker past it.
func (fv *workerFaults) slowdownPenalty(startNS, durNS, nowNS int64) time.Duration {
	if fv.slowFactor < 2 || startNS < fv.slowFrom || startNS >= fv.slowUntil {
		return 0
	}
	extra := durNS * (fv.slowFactor - 1)
	if rem := fv.slowUntil - nowNS; rem < extra {
		extra = rem
	}
	if extra <= 0 {
		return 0
	}
	return time.Duration(extra)
}

// sleep pauses w for d, waking early if the run stops. It reuses the
// worker's park timer (never concurrently in use: sleeps happen at
// dispatch points, parks when there is nothing to dispatch).
func (rt *Runtime) sleep(w *worker, d time.Duration) {
	if d <= 0 {
		return
	}
	if w.timer == nil {
		w.timer = time.NewTimer(d)
	} else {
		w.timer.Reset(d)
	}
	fired := false
	select {
	case <-rt.stopc:
	case <-w.timer.C:
		fired = true
	}
	if !fired && !w.timer.Stop() {
		<-w.timer.C
	}
}

// launchAborted asks the plan's injector whether this launch of t on w
// is struck — a flaky window on w, or a planted FailTask abort. When it
// is, it either schedules a retry (affinity-aware target, exponential
// backoff, delivered by the timekeeper) or stops the run with
// *fault.TaskAbort. Returns true when the task must not run now.
//
// Transient aborts strike only here, before the task body has executed
// a single operation, so a retried launch re-runs a side-effect-free
// body (the same abort-point rule the simulator enforces). Injected
// panics strike mid-body instead and are never retried.
func (rt *Runtime) launchAborted(w *worker, t *task) bool {
	now := rt.nowNS()
	if !rt.inj.Strikes(w.id, now, t.name, t.spawnIdx) {
		return false
	}
	t.aborts++
	ctr := &rt.cfg.Mon.Per[w.id]
	if t.aborts >= rt.retry.MaxAttempts { // always, when retries are disabled
		ctr.GaveUp++
		rt.trace(w, trace.KindRetry, w.id, t.name, -1)
		rt.stop(&fault.TaskAbort{Task: t.name, Proc: w.id, Time: now, Attempts: t.aborts})
		return true
	}
	ctr.Retries++
	rt.scheduleRetry(w, t, now)
	return true
}

// scheduleRetry queues t, whose launch on w just failed for the
// t.aborts-th time, for another attempt after its backoff: on the
// affinity-aware target core.Topo.RetryTarget picks, fed the live home
// of t's set. The choice is revalidated against worker deaths at
// delivery time.
func (rt *Runtime) scheduleRetry(w *worker, t *task, now int64) {
	dead := rt.deadSet()
	home := -1
	if t.Class == core.ClassTaskSet {
		if h := rt.setHomeOf(t.AffObj); h >= 0 && !dead.Has(h) {
			home = h
		}
	}
	tgt := rt.topo.RetryTarget(t.Class, t.server, w.id, t.aborts, home, dead)
	rt.trace(w, trace.KindRetry, w.id, t.name, int64(tgt))
	rt.retries.add(retryItem{due: now + rt.retry.Delay(t.aborts), t: t, target: tgt})
}

// deliverRetry re-enqueues a transiently failed task once its backoff
// elapsed; the insert paths reroute a target that died during the
// backoff. Runs on the timekeeper goroutine.
func (rt *Runtime) deliverRetry(it retryItem) {
	t, tgt := it.t, it.target
	if t.Class == core.ClassTaskSet {
		tgt = rt.placeSet(t, &rt.tkScratch)
	} else {
		t.server = tgt
		tgt = rt.insertFrom(t, &rt.tkScratch, nil)
	}
	rt.wakeWorker(tgt)
}
