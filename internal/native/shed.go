package native

import (
	"github.com/coolrts/cool/internal/perfmon"
	"github.com/coolrts/cool/internal/trace"
)

// This file is the SLO layer: per-spawn priorities and deadlines, and
// the overload-shedding policy that drops (or defers) the
// lowest-priority work first when backlog builds.
//
// Priorities are classes 0..7 (0 = default and lowest; class 7 is
// never shed on priority grounds). A task whose deadline has expired
// is shed at dispatch regardless of load. Below-floor tasks are shed —
// or, with RetryShed and a retry policy, re-queued with backoff so
// they run once the backlog clears. The shed floor itself is moved by
// the timekeeper: when the machine-wide backlog per alive worker
// passes QueueHighWater, the floor rises just above the lowest
// priority class with live tasks (shedding exactly the least important
// work first); it drops back to zero once the backlog halves.
//
// A shed is a completion for every liveness mechanism — the task's
// scope, the live counter, and the watchdog's progress count — so
// WaitFor and Run never hang on work the policy dropped.

// ShedPolicy arms overload shedding and deadline enforcement (public as
// cool.ShedPolicy).
type ShedPolicy struct {
	// QueueHighWater is the machine-wide backlog per alive worker above
	// which shedding engages (default 64).
	QueueHighWater int
	// RetryShed defers below-priority-floor tasks through the retry
	// queue (requires Config.Retry) instead of dropping them; tasks
	// whose retry budget runs out are dropped, never aborted — shedding
	// must not stop the run.
	RetryShed bool
}

// maxPrio is the highest priority class; prioLive has maxPrio+1 rows.
const maxPrio = 7

// clampPrio folds an arbitrary priority into the class range [0,7].
func clampPrio(p int8) int8 {
	if p < 0 {
		return 0
	}
	if p > maxPrio {
		return maxPrio
	}
	return p
}

// maybeShed applies the shedding policy to a task about to launch,
// returning true when the task was shed or deferred and must not run.
// Runs on w's own goroutine; only called when a ShedPolicy is armed.
func (rt *Runtime) maybeShed(w *worker, t *task) bool {
	ctr := &rt.cfg.Mon.Per[w.id]
	if t.deadlineNS > 0 && rt.nowNS() > t.deadlineNS {
		ctr.DeadlineMisses++
		rt.shedTask(w, t, ctr)
		return true
	}
	floor := rt.shedFloor.Load()
	if floor == 0 || int32(t.prio) >= floor || t.prio >= maxPrio {
		return false
	}
	if rt.shed.RetryShed && t.aborts+1 < rt.retry.MaxAttempts {
		t.aborts++
		ctr.Retries++
		rt.scheduleRetry(w, t, rt.nowNS())
		return true
	}
	rt.shedTask(w, t, ctr)
	return true
}

// shedTask drops t without running it, with full completion
// accounting: the scope is released, the record recycled, and the live
// and watchdog counters move exactly as a run-to-completion would.
func (rt *Runtime) shedTask(w *worker, t *task, ctr *perfmon.Counters) {
	ctr.TasksShed++
	rt.trace(w, trace.KindShed, w.id, t.name, int64(t.prio))
	rt.prioLive[t.prio].Add(-1)
	if t.scope != nil {
		rt.scopeDone(t.scope)
	}
	rt.freeTask(w, t)
	rt.completed.Add(1)
	if rt.live.Add(-1) == 0 {
		rt.doneOnce.Do(func() { close(rt.done) })
	}
}

// shedControl is the timekeeper's per-tick floor controller. It reads
// only atomics (queuedTotal, the dead mask, prioLive) — no perfmon
// rows.
func (rt *Runtime) shedControl() {
	sc := rt.shed
	high := int64(sc.QueueHighWater) * int64(rt.aliveWorkers())
	if high <= 0 {
		return
	}
	q := rt.queuedTotal.Load()
	cur := rt.shedFloor.Load()
	if q > high {
		for k := int32(0); k < maxPrio; k++ {
			if rt.prioLive[k].Load() > 0 {
				if k+1 > cur {
					rt.shedFloor.Store(k + 1)
				}
				break
			}
		}
	} else if cur != 0 && q*2 < high {
		rt.shedFloor.Store(0)
	}
}
