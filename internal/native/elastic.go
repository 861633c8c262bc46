package native

import "fmt"

// This file makes the worker pool elastic: workers can be added and
// retired mid-run without losing or splitting work.
//
//   - Capacity model: New builds worker structs up to Config.MaxProcs
//     ("spare slots"); the spares start with their dead bit set, so
//     every existing insert-path dead check reroutes around them with
//     no new branches. AddWorkers resurrects a spare by clearing its
//     dead bit and starting its goroutine; retirement (planned drain or
//     fault-injected kill) sets the bit back and exits the goroutine.
//   - Pool-join protocol: Run cannot use a WaitGroup (Add after Wait
//     began is a race), so worker goroutines are counted under poolMu:
//     poolStarted at go-time, poolExited when the loop returns. Run
//     waits for the run to end (done/stopc), flips joining — which
//     refuses further growth — and then waits for started == exited.
//   - Membership epoch: every add/retire bumps rt.epoch. Each thief
//     rebuilds its own victim rings (core.Rings, dead slots left out)
//     when the epoch moves, so steal scans skip dead slots without
//     per-victim dead checks. A stale ring is only a transient
//     inefficiency: the q==0 skip in stealScan keeps correctness.
//   - Planned drain: Drain stores a request timestamp in the victim's
//     drainReq; the victim's own goroutine observes it at its next
//     top-level dispatch point, finishes nothing mid-task, and retires
//     through the same drain path as a kill — minus the fault
//     accounting, plus a PoolEvent carrying the request-to-completion
//     latency. Whole task-affinity sets re-home through the sharded set
//     table (placeSet), so SetSplits stays zero.
//
// Lock order: poolMu is leaf-only with respect to the scheduler — no
// worker mutex or set-table shard is ever acquired while holding it,
// and it is never acquired while holding one of those.

// PoolEvent is one pool-membership change, recorded for Report (public
// as cool.PoolEvent).
type PoolEvent struct {
	Kind       string // "add", "drain", "kill"
	Proc       int    // the worker added or retired
	TimeNS     int64  // completion time, nanoseconds since Run started
	DurationNS int64  // drain only: request-to-completion latency
	Moved      int    // tasks re-homed off the retiring worker
}

// startWorkerLocked starts w's goroutine and counts it in the pool-join
// protocol. poolMu held.
func (rt *Runtime) startWorkerLocked(w *worker) {
	rt.poolStarted++
	w.exited.Store(false)
	go func() {
		rt.loop(w)
		rt.workerExited(w)
	}()
}

// workerExited is the tail of every worker goroutine. Everything it
// does happens inside the poolMu critical section: once Run observes
// allExited and returns, the only thing any worker goroutine has left
// to touch is the mutex itself, so a subsequent Reset (which also
// takes poolMu) cannot race with a worker's last breath.
func (rt *Runtime) workerExited(w *worker) {
	rt.poolMu.Lock()
	w.exited.Store(true)
	rt.poolExited++
	allDone := rt.poolExited == rt.poolStarted
	if allDone && rt.joining {
		close(rt.allExited)
	} else if allDone {
		// Every started worker retired with the run still outstanding
		// (validation should prevent this); let Run return rather than
		// hang on a done that can no longer close.
		rt.idleOnce.Do(func() { close(rt.idleExit) })
	}
	rt.poolMu.Unlock()
}

// AddWorkers grows the pool by n workers mid-run, resurrecting the
// lowest-numbered spare slots (reserved by Config.MaxProcs). Each added
// worker gets its dead bit cleared — making it a routable insert target
// and steal victim — before its goroutine starts. Returns the ids
// added.
func (rt *Runtime) AddWorkers(n int) ([]int, error) {
	if !rt.elastic {
		return nil, fmt.Errorf("native: AddWorkers requires spare capacity (Config.MaxProcs)")
	}
	if n <= 0 {
		return nil, fmt.Errorf("native: AddWorkers(%d): count must be positive", n)
	}
	rt.poolMu.Lock()
	defer rt.poolMu.Unlock()
	if !rt.running || rt.joining {
		return nil, fmt.Errorf("native: AddWorkers outside an active run")
	}
	var spares []int
	for id, w := range rt.workers {
		if rt.isDead(id) && w.exited.Load() {
			spares = append(spares, id)
			if len(spares) == n {
				break
			}
		}
	}
	if len(spares) < n {
		return nil, fmt.Errorf("native: AddWorkers(%d): only %d spare slot(s) free", n, len(spares))
	}
	for _, id := range spares {
		w := rt.workers[id]
		w.drainReq.Store(0)
		bit := uint64(1) << uint(id)
		for {
			old := rt.dead.Load()
			if rt.dead.CompareAndSwap(old, old&^bit) {
				break
			}
		}
		rt.epoch.Add(1)
		rt.poolEvents = append(rt.poolEvents, PoolEvent{Kind: "add", Proc: id, TimeNS: rt.nowNS()})
		rt.startWorkerLocked(w)
	}
	return spares, nil
}

// Drain requests a planned retirement of each listed worker: the victim
// finishes its running task, stops accepting inserts, and re-homes its
// queued work affinity-preserving (whole sets move through the set
// table and never split). The request is asynchronous — completion is
// visible as a "drain" PoolEvent. At least one undrained worker must
// remain.
func (rt *Runtime) Drain(ids ...int) error {
	if !rt.elastic {
		return fmt.Errorf("native: Drain requires an elastic pool (Config.MaxProcs)")
	}
	if len(ids) == 0 {
		return nil
	}
	rt.poolMu.Lock()
	defer rt.poolMu.Unlock()
	return rt.drainLocked(ids)
}

// DrainN is Drain with the runtime picking the victims: the n
// highest-numbered alive workers without a pending drain. Returns the
// ids chosen.
func (rt *Runtime) DrainN(n int) ([]int, error) {
	if !rt.elastic {
		return nil, fmt.Errorf("native: Drain requires an elastic pool (Config.MaxProcs)")
	}
	if n <= 0 {
		return nil, fmt.Errorf("native: DrainN(%d): count must be positive", n)
	}
	rt.poolMu.Lock()
	defer rt.poolMu.Unlock()
	var ids []int
	for id := len(rt.workers) - 1; id >= 0 && len(ids) < n; id-- {
		if !rt.isDead(id) && rt.workers[id].drainReq.Load() == 0 {
			ids = append(ids, id)
		}
	}
	if len(ids) < n {
		return nil, fmt.Errorf("native: DrainN(%d): only %d drainable worker(s)", n, len(ids))
	}
	if err := rt.drainLocked(ids); err != nil {
		return nil, err
	}
	return ids, nil
}

// drainLocked validates and arms the drain requests. poolMu held.
func (rt *Runtime) drainLocked(ids []int) error {
	if !rt.running || rt.joining {
		return fmt.Errorf("native: Drain outside an active run")
	}
	req := make(map[int]bool, len(ids))
	for _, id := range ids {
		if id < 0 || id >= len(rt.workers) {
			return fmt.Errorf("native: Drain: worker %d out of range [0,%d)", id, len(rt.workers))
		}
		if rt.isDead(id) {
			return fmt.Errorf("native: Drain: worker %d already retired", id)
		}
		if req[id] || rt.workers[id].drainReq.Load() != 0 {
			return fmt.Errorf("native: Drain: worker %d already draining", id)
		}
		req[id] = true
	}
	if rt.stayingWorkers()-len(ids) < 1 {
		return fmt.Errorf("native: Drain of %d worker(s) would leave the pool empty", len(ids))
	}
	now := rt.nowNS()
	if now < 1 {
		now = 1 // drainReq == 0 means "no request"
	}
	for _, id := range ids {
		rt.workers[id].drainReq.Store(now)
		rt.wakeWorker(id) // a parked victim must notice the request
	}
	return nil
}

// stayingWorkers counts the alive workers nobody has asked to retire:
// the pool size once every pending drain completes. A worker asked to
// drain stays alive until it reaches its next top-level dispatch point,
// so a survivor check against the alive count alone would let
// back-to-back drains empty the pool. One dead-mask snapshot keeps the
// two terms consistent.
func (rt *Runtime) stayingWorkers() int {
	dead := rt.deadSet()
	n := 0
	for id, w := range rt.workers {
		if !dead.Has(id) && w.drainReq.Load() == 0 {
			n++
		}
	}
	return n
}

// drainRequested is the per-iteration check in the worker loop: a
// pending drain request retires the worker. Top level only — a waitfor
// helping loop is inside a task body that must finish first.
func (rt *Runtime) drainRequested(w *worker) bool {
	req := w.drainReq.Load()
	if req == 0 {
		return false
	}
	rt.retireWith(w, false, req)
	return true
}

// recordPoolEvent appends one membership event to the Report timeline.
func (rt *Runtime) recordPoolEvent(ev PoolEvent) {
	rt.poolMu.Lock()
	rt.poolEvents = append(rt.poolEvents, ev)
	rt.poolMu.Unlock()
}

// PoolEvents returns a copy of the membership timeline (adds, drains,
// kills), ordered by occurrence. Call after Run for a stable view.
func (rt *Runtime) PoolEvents() []PoolEvent {
	rt.poolMu.Lock()
	defer rt.poolMu.Unlock()
	out := make([]PoolEvent, len(rt.poolEvents))
	copy(out, rt.poolEvents)
	return out
}

// PoolSize returns the number of alive (routable) workers.
func (rt *Runtime) PoolSize() int { return rt.aliveWorkers() }
