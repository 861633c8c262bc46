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

// launchAborted consults the engine's injector for a fresh launch of td
// on p. When the launch is struck it either schedules another attempt
// under the Retry policy — on the affinity-aware Topo.RetryTarget, fed
// the live home of the task's set, once the backoff has elapsed —
// counting a retry, or fails the run, counting a give-up; either way p
// immediately re-enters dispatch so other queued work is not stranded
// behind the aborted launch.
func (s *Scheduler) launchAborted(td *TaskDesc, p *sim.Proc) bool {
	if !s.Eng.LaunchShouldAbort(td.T, p) {
		return false
	}
	now := p.Clock
	attempts := td.T.LaunchAborts()
	if attempts >= s.Retry.MaxAttempts { // always, when retries are disabled
		s.Mon.Per[p.ID].GaveUp++
		s.Trace.Add(now, p.ID, trace.KindRetry, td.T.Name, -1)
		s.Eng.FailRun(&fault.TaskAbort{Task: td.T.Name, Proc: p.ID, Time: now, Attempts: attempts})
		return true
	}
	tgt := s.retryTarget(td, p.ID, attempts)
	s.Trace.Add(now, p.ID, trace.KindRetry, td.T.Name, int64(tgt))
	s.Eng.At(now+s.Retry.Delay(attempts), func() { s.EnqueueRetry(td, tgt, s.Eng.Now()) })
	s.Mon.Per[p.ID].Retries++
	s.Eng.Redispatch(p)
	return true
}

// retryTarget picks the server for the next launch attempt of a task
// whose launch just aborted on failedOn, attempt attempts in.
func (s *Scheduler) retryTarget(td *TaskDesc, failedOn, attempt int) int {
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
