package native

import (
	"container/heap"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/coolrts/cool/internal/core"
	"github.com/coolrts/cool/internal/fault"
	"github.com/coolrts/cool/internal/trace"
)

// This file ports the robustness stack to the native backend: wall-clock
// fault injection (worker retirement, slowdowns, stalls, flaky windows,
// injected task panics and transient launch failures), affinity-aware
// retries with backoff, run deadlines, and a no-progress watchdog. The
// semantics are the simulator's (internal/core/degrade.go and retry.go,
// with the nearest-survivor and retry-rotation rules shared through
// core.Topo) and simulated cycles read as wall-clock nanoseconds; the
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
//   - Timed fault events (slowdown, stall, fail) are applied by the
//     victim worker's own goroutine at its dispatch points, so the
//     fault counters keep the one-writer-per-row perfmon contract.
//   - The timekeeper goroutine delivers due retries and fires
//     deadline/watchdog stops. It never writes a perfmon row (retries
//     are counted by the aborting worker; the timekeeper's lock
//     contention goes to a private scratch row).

// stopUnwind is the panic sentinel used to unwind a worker goroutine
// blocked inside a task body (waitfor helping loop, condition wait)
// when the run is stopped by a deadline, watchdog, or retry exhaustion.
// execute's recovery recognizes and swallows it.
type stopUnwind struct{}

// nsWindow is a half-open wall-clock window [from, to).
type nsWindow struct{ from, to int64 }

// workerFaults is one worker's share of the fault plan. It is written
// only by that worker's own goroutine (pending events are consumed in
// order at dispatch points); the static flaky windows are read-only
// after New. idx is atomic only because the timekeeper peeks at it to
// decide whether the worker has a due event worth waking it for — the
// worker remains the sole writer.
type workerFaults struct {
	pending []fault.Event // timed slowdown/stall/fail events, sorted by At
	idx     atomic.Int32  // next pending event to apply

	flaky    []nsWindow // launch-abort windows, static
	flakyHit []bool     // window already counted as a fault event

	slowFrom, slowUntil, slowFactor int64 // active slowdown window
}

// injector tracks per-name spawn sequence numbers and the planted
// panic/abort injections. Only tracked names pay for the lock: spawn
// consults the read-only tracked set first.
type injector struct {
	mu      sync.Mutex
	seq     map[string]int
	panics  map[string]map[int]bool
	aborts  map[string]map[int]int
	tracked map[string]bool
}

// noteSpawn assigns t its per-name creation index and marks a planted
// panic. Called only for tracked names.
func (in *injector) noteSpawn(t *task) {
	in.mu.Lock()
	idx := in.seq[t.name]
	in.seq[t.name] = idx + 1
	t.spawnIdx, t.tracked = idx, true
	if in.panics[t.name][idx] {
		t.injPanic = true
	}
	in.mu.Unlock()
}

// consumeAbort consumes one planted transient abort for (name, idx),
// reporting whether this launch attempt is struck.
func (in *injector) consumeAbort(name string, idx int) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	set := in.aborts[name]
	if set == nil || set[idx] <= 0 {
		return false
	}
	set[idx]--
	return true
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

// armFaults partitions a validated plan into per-worker event state and
// the spawn-time injector. MemDegrade events are dropped: the native
// backend has no memory system to degrade (documented in DESIGN.md §9).
func (rt *Runtime) armFaults(p *fault.Plan) {
	var inj *injector
	getInj := func() *injector {
		if inj == nil {
			inj = &injector{
				seq:     map[string]int{},
				panics:  map[string]map[int]bool{},
				aborts:  map[string]map[int]int{},
				tracked: map[string]bool{},
			}
		}
		return inj
	}
	fvs := make([]*workerFaults, len(rt.workers))
	getFv := func(proc int) *workerFaults {
		if fvs[proc] == nil {
			fvs[proc] = &workerFaults{}
		}
		return fvs[proc]
	}
	for _, ev := range p.Events {
		switch ev.Kind {
		case fault.Slowdown, fault.Stall, fault.Fail, fault.Drain:
			fv := getFv(ev.Proc)
			fv.pending = append(fv.pending, ev)
		case fault.AddWorker:
			// Pool growth has no victim worker; the timekeeper applies
			// due adds (best-effort — capacity may be exhausted).
			rt.addTimes = append(rt.addTimes, ev.At)
		case fault.Flaky:
			fv := getFv(ev.Proc)
			fv.flaky = append(fv.flaky, nsWindow{ev.At, ev.At + ev.Cycles})
			fv.flakyHit = append(fv.flakyHit, false)
		case fault.TaskPanic:
			in := getInj()
			if in.panics[ev.Task] == nil {
				in.panics[ev.Task] = map[int]bool{}
			}
			in.panics[ev.Task][ev.Nth] = true
			in.tracked[ev.Task] = true
		case fault.TaskFail:
			in := getInj()
			if in.aborts[ev.Task] == nil {
				in.aborts[ev.Task] = map[int]int{}
			}
			in.aborts[ev.Task][ev.Nth]++
			in.tracked[ev.Task] = true
		case fault.MemDegrade:
			// No memory system to degrade natively; documented no-op.
		}
	}
	for i, fv := range fvs {
		if fv == nil {
			continue
		}
		// Insertion sort keeps equal-At events applying in plan order.
		evs := fv.pending
		for a := 1; a < len(evs); a++ {
			for b := a; b > 0 && evs[b].At < evs[b-1].At; b-- {
				evs[b], evs[b-1] = evs[b-1], evs[b]
			}
		}
		rt.workers[i].fev = fv
	}
	sort.Slice(rt.addTimes, func(a, b int) bool { return rt.addTimes[a] < rt.addTimes[b] })
	rt.inj = inj
}

// stopped reports whether the run has been aborted.
func (rt *Runtime) stopped() bool { return rt.stopping.Load() }

// stop aborts the run with err (first failure wins): workers unwind at
// their next dispatch point or park, and Run returns err.
func (rt *Runtime) stop(err error) {
	rt.recordFailure(err)
	rt.stopOnce.Do(func() {
		rt.stopping.Store(true)
		close(rt.stopc)
	})
}

// deadSet returns the retired (and never-started spare) workers, in the
// form the shared decisions of internal/core take.
func (rt *Runtime) deadSet() core.ProcSet { return core.ProcSet(rt.dead.Load()) }

// isDead reports whether worker id has been retired.
func (rt *Runtime) isDead(id int) bool { return rt.deadSet().Has(id) }

// aliveWorkers returns the number of workers not retired (spare slots
// reserved by MaxProcs sit in the dead mask until AddWorkers claims
// them, so they never count).
func (rt *Runtime) aliveWorkers() int {
	return len(rt.workers) - bits.OnesCount64(rt.dead.Load())
}

// spreadAlive returns surviving workers in rotation, for load-balanced
// redistribution of tasks with no binding affinity.
func (rt *Runtime) spreadAlive() int {
	n := len(rt.workers)
	for i := 0; i < n; i++ {
		v := int(rt.rr.Add(1)-1) % n
		if !rt.isDead(v) {
			return v
		}
	}
	return 0
}

// rerouteTarget picks the surviving worker for a task whose placement
// target is dead — the native failoverTarget for non-set classes (sets
// re-home under their shard lock in placeSet instead).
func (rt *Runtime) rerouteTarget(t *task) int {
	if t.class == core.ClassObjectBound {
		return rt.topo.NearestAlive(t.server, rt.deadSet())
	}
	return rt.spreadAlive()
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
		case fault.Fail:
			if !topLevel {
				fv.idx.Store(int32(i))
				return false
			}
			rt.retireWith(w, true, 0)
			return true
		case fault.Drain:
			// A planned drain is deferred exactly like death while the
			// worker is helping inside a task body.
			if !topLevel {
				fv.idx.Store(int32(i))
				return false
			}
			rt.retireWith(w, false, ev.At)
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

// retireWith permanently stops worker w, as a fault-injected kill
// (kill=true — the native FailServer) or a planned drain (kill=false —
// the clean half of elastic worker pools, reqNS carrying the request
// time for the drain-latency report): mark the dead bit, drain every
// queued task under w's own lock, then redistribute
// affinity-preserving: whole task-affinity sets re-home as a unit under
// their shard lock, object-bound tasks move to the nearest same-cluster
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
func (rt *Runtime) retireWith(w *worker, kill bool, reqNS int64) {
	bit := uint64(1) << uint(w.id)
	ctr := &rt.cfg.Mon.Per[w.id]
	if kill {
		ctr.FaultEvents++
		rt.trace(w, trace.KindFault, w.id, "proc-fail", 0)
	}

	w.mu.Lock()
	for {
		old := rt.dead.Load()
		if rt.dead.CompareAndSwap(old, old|bit) {
			break
		}
	}
	var drained []*task
	for q := w.nonEmpty.head; q != nil; q = w.nonEmpty.head {
		for t := q.pop(); t != nil; t = q.pop() {
			drained = append(drained, t)
		}
		w.nonEmpty.removeQ(q)
	}
	for t := w.pinned.pop(); t != nil; t = w.pinned.pop() {
		drained = append(drained, t)
	}
	w.cur = nil
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

	if rt.aliveWorkers() > 0 {
		for _, t := range drained {
			name := t.name
			var tgt int
			if t.class == core.ClassTaskSet {
				// placeSet revalidates the set's home under its shard lock
				// and re-homes it off the dead worker; every member chases
				// the same home, so the set moves whole and never splits.
				tgt = rt.placeSet(t, ctr)
			} else {
				tgt = rt.insertFrom(t, ctr, nil)
			}
			if kill {
				ctr.Redistributed++
				rt.trace(w, trace.KindRedistribute, w.id, name, int64(tgt))
			}
			rt.wakeAfterEnqueue(tgt, w.id)
		}
	}
	// else: no survivor to hand the work to (plans and the Drain API
	// validate against this; the watchdog reports the stall anyway).

	rt.epoch.Add(1)
	now := rt.nowNS()
	ev := PoolEvent{Kind: "kill", Proc: w.id, TimeNS: now, Moved: len(drained)}
	if !kill {
		ev.Kind = "drain"
		if reqNS > 0 && now > reqNS {
			ev.DurationNS = now - reqNS
		}
		rt.trace(w, trace.KindPool, w.id, "drain", int64(len(drained)))
	}
	rt.recordPoolEvent(ev)
}

// launchAborted consults the transient-fault injections for a launch of
// t on w — a flaky window on w, or a planted FailTask strike. When the
// launch is struck it either schedules a retry (affinity-aware target,
// exponential backoff, delivered by the timekeeper) or stops the run
// with *fault.TaskAbort. Returns true when the task must not run now.
//
// Transient aborts strike only here, before the task body has executed
// a single operation, so a retried launch re-runs a side-effect-free
// body (the same abort-point rule the simulator enforces). Injected
// panics strike mid-body instead and are never retried.
func (rt *Runtime) launchAborted(w *worker, t *task) bool {
	now := rt.nowNS()
	struck := false
	if fv := w.fev; fv != nil {
		for i, win := range fv.flaky {
			if now >= win.from && now < win.to {
				struck = true
				if !fv.flakyHit[i] {
					fv.flakyHit[i] = true
					rt.cfg.Mon.Per[w.id].FaultEvents++
					rt.trace(w, trace.KindFault, w.id, "flaky", win.to-win.from)
				}
				break
			}
		}
	}
	if !struck && t.tracked && rt.inj.consumeAbort(t.name, t.spawnIdx) {
		struck = true
	}
	if !struck {
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
	if t.class == core.ClassTaskSet {
		if h := rt.setHomeOf(t.affObj); h >= 0 && !dead.Has(h) {
			home = h
		}
	}
	tgt := rt.topo.RetryTarget(t.class, t.server, w.id, t.aborts, home, dead)
	rt.trace(w, trace.KindRetry, w.id, t.name, int64(tgt))
	rt.retries.add(retryItem{due: now + rt.retry.Delay(t.aborts), t: t, target: tgt})
}

// deliverRetry re-enqueues a transiently failed task once its backoff
// elapsed, revalidating the target against deaths that happened during
// the backoff. Runs on the timekeeper goroutine.
func (rt *Runtime) deliverRetry(it retryItem) {
	t, tgt := it.t, it.target
	if t.class == core.ClassTaskSet {
		tgt = rt.placeSet(t, &rt.tkScratch)
	} else {
		if rt.isDead(tgt) {
			tgt = rt.rerouteTarget(t)
		}
		t.server = tgt
		tgt = rt.insertFrom(t, &rt.tkScratch, nil)
	}
	rt.wakeWorker(tgt)
}

// queueDepths returns the tasks queued per worker (dead workers report
// -1) — the progress snapshot embedded in deadline and watchdog errors.
func (rt *Runtime) queueDepths() []int {
	out := make([]int, len(rt.workers))
	for i, w := range rt.workers {
		if rt.isDead(i) {
			out[i] = -1
		} else {
			out[i] = int(w.queued.Load())
		}
	}
	return out
}

// snapshot renders the per-worker queue state for watchdog errors, in
// the same shape as the simulator scheduler's Snapshot.
func (rt *Runtime) snapshot() string {
	var b strings.Builder
	b.WriteString("scheduler queues:")
	total := 0
	for i, w := range rt.workers {
		state := ""
		if rt.isDead(i) {
			state = " dead"
		}
		q := int(w.queued.Load())
		fmt.Fprintf(&b, " P%d:%d%s", i, q, state)
		total += q
	}
	fmt.Fprintf(&b, " (total %d queued)", total)
	return b.String()
}

// timekeeperTick is how often the timekeeper samples the clock. Fault
// event times in chaos plans range from tens of microseconds to a few
// milliseconds; a 200µs tick delivers retries and fires deadlines with
// enough resolution without burning a core.
const timekeeperTick = 200 * time.Microsecond

// timekeeper is the run's one control goroutine, started by Run when
// anything time-driven is armed (faults, retries, a deadline, the
// watchdog, shedding). Per tick it delivers due retries, applies due
// plan adds, runs the shed-floor step, wakes workers that have due timed
// fault events (so an idle worker still retires on schedule), and stops
// over-budget or hung runs with the typed deadline/no-progress errors.
// It exits when the run drains, stops, or loses its last worker.
func (rt *Runtime) timekeeper() {
	defer rt.tkDone.Done()
	tick := time.NewTicker(timekeeperTick)
	defer tick.Stop()
	var lastCompleted int64
	lastProgress := time.Now()
	for {
		select {
		case <-rt.done:
			return
		case <-rt.stopc:
			return
		case <-rt.idleExit:
			return // the pool emptied; Run is returning
		case <-tick.C:
		}
		now := rt.nowNS()
		for {
			it, ok := rt.retries.popDue(now)
			if !ok {
				break
			}
			rt.deliverRetry(it)
		}
		// Apply due plan-scheduled pool growth (best-effort: capacity
		// may be exhausted or the run already joining).
		for rt.addIdx < len(rt.addTimes) && rt.addTimes[rt.addIdx] <= now {
			rt.addIdx++
			rt.AddWorkers(1)
		}
		if rt.shed != nil {
			rt.shedControl()
		}
		// Wake workers whose next timed fault event is due: a parked
		// worker applies its events at the top of its loop.
		for _, w := range rt.workers {
			fv := w.fev
			if fv == nil || rt.isDead(w.id) {
				continue
			}
			if i := int(fv.idx.Load()); i < len(fv.pending) && fv.pending[i].At <= now {
				rt.wakeWorker(w.id)
			}
		}
		if rt.deadlineNS > 0 && now >= rt.deadlineNS && rt.live.Load() > 0 {
			rt.stop(&fault.DeadlineExceeded{
				Deadline:    rt.deadlineNS,
				Time:        now,
				LiveTasks:   int(rt.live.Load()),
				QueueDepths: rt.queueDepths(),
			})
			return
		}
		if rt.noProgressNS > 0 {
			if c := rt.completed.Load(); c != lastCompleted {
				lastCompleted = c
				lastProgress = time.Now()
			} else if time.Since(lastProgress).Nanoseconds() >= rt.noProgressNS && rt.live.Load() > 0 {
				rt.stop(&fault.NoProgress{
					CycleLimit: rt.noProgressNS,
					Time:       now,
					LiveTasks:  int(rt.live.Load()),
					Snapshot:   rt.snapshot(),
				})
				return
			}
		}
	}
}
