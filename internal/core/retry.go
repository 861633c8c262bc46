package core

import (
	"github.com/coolrts/cool/internal/fault"
	"github.com/coolrts/cool/internal/sim"
	"github.com/coolrts/cool/internal/trace"
)

// This file implements the transient-failure retry path. A launch
// attempt can be aborted by fault injection (a targeted FailTask event
// or a flaky window on the launching processor) before the task body
// runs; the runtime's retry policy then decides whether to re-place the
// task for another attempt or give up and fail the run. Because aborts
// strike only fresh launches — never started continuations — a retried
// task re-runs a body that has had no side effects, so results are
// unchanged by where (or how often) the launch was attempted.

// SetAbortHandler installs the runtime's retry hook. The handler
// returns true when it scheduled another attempt (after its backoff),
// false when the budget is exhausted; nil means any abort fails the
// run immediately.
func (s *Scheduler) SetAbortHandler(fn func(td *TaskDesc, failedOn int, now int64) bool) {
	s.onAbort = fn
}

// launchAborted consults the engine's transient-fault injections for a
// fresh launch of td on p. When the launch is struck it either hands
// the task to the retry hook (counting a retry) or fails the run
// (counting a give-up); either way p immediately re-enters dispatch so
// other queued work is not stranded behind the aborted launch.
func (s *Scheduler) launchAborted(td *TaskDesc, p *sim.Proc) bool {
	if !s.Eng.LaunchShouldAbort(td.T, p) {
		return false
	}
	now := p.Clock
	if s.onAbort != nil && s.onAbort(td, p.ID, now) {
		s.Mon.Per[p.ID].Retries++
	} else {
		s.Mon.Per[p.ID].GaveUp++
		s.Trace.Add(now, p.ID, trace.KindRetry, td.T.Name, -1)
		s.Eng.FailRun(&fault.TaskAbort{Task: td.T.Name, Proc: p.ID, Time: now, Attempts: td.T.LaunchAborts()})
		return true
	}
	s.Eng.Redispatch(p)
	return true
}

// TraceRetry records a retry decision: the launch failed on proc and
// the next attempt goes to tgt.
func (s *Scheduler) TraceRetry(now int64, proc int, task string, tgt int) {
	s.Trace.Add(now, proc, trace.KindRetry, task, int64(tgt))
}

// RetryTarget picks the server for the next launch attempt of a task
// whose launch just aborted on failedOn, attempt attempts in: the
// affinity-aware rotation of Topo.RetryTarget, fed the live home of the
// task's set.
func (s *Scheduler) RetryTarget(td *TaskDesc, failedOn, attempt int) int {
	return s.topo.RetryTarget(td.Class, td.Server, failedOn, attempt, s.liveSetHome(td), s.dead)
}

// liveSetHome returns the surviving server hosting td's task-affinity
// set, or -1 when td is not a set member or the set has no live home.
func (s *Scheduler) liveSetHome(td *TaskDesc) int {
	if td.Class == ClassTaskSet {
		if h, ok := s.setHome[td.AffObj]; ok && !s.dead.Has(h) {
			return h
		}
	}
	return -1
}

// EnqueueRetry re-enqueues a transiently failed task on tgt once its
// backoff has elapsed. The target chosen at abort time is revalidated
// against the current world: a set member is forced onto its set's
// live home (re-homing the set if that died), and a dead target is
// rerouted like any other placement.
func (s *Scheduler) EnqueueRetry(td *TaskDesc, tgt int, now int64) {
	if h := s.liveSetHome(td); h >= 0 {
		tgt = h
	} else if td.Class == ClassTaskSet {
		tgt = s.aliveServer(tgt)
		s.setHome[td.AffObj] = tgt
	} else if s.dead.Has(tgt) {
		tgt = s.reroute(td, tgt)
	}
	td.Server = tgt
	sv := s.Srv[tgt]
	sv.q.Push(&td.Link)
	s.noteEnqueued(sv, 1)
	s.Trace.Add(now, -1, trace.KindEnqueue, td.T.Name, int64(tgt))
	s.wake(tgt, now)
}

// QueueDepths returns the number of tasks queued on each server (dead
// servers report -1) — the progress snapshot embedded in deadline
// errors.
func (s *Scheduler) QueueDepths() []int {
	out := make([]int, len(s.Srv))
	for i, sv := range s.Srv {
		if s.dead.Has(i) {
			out[i] = -1
		} else {
			out[i] = sv.queued
		}
	}
	return out
}
