package core

import (
	"math/bits"

	"github.com/coolrts/cool/internal/fault"
	"github.com/coolrts/cool/internal/sim"
	"github.com/coolrts/cool/internal/trace"
)

// This file implements graceful degradation: when a server's processor
// is retired by fault injection, its queued work — object-affinity
// tasks, whole task-affinity sets, plain/processor tasks, and parked
// continuations — is drained and redistributed to the surviving
// servers, respecting affinity where possible. All decisions are
// deterministic functions of the victim id and queue contents, so a
// faulted run replays exactly.

// AliveServers returns the number of servers not retired by FailServer.
func (s *Scheduler) AliveServers() int {
	return len(s.Srv) - bits.OnesCount64(uint64(s.dead))
}

// ServerAlive reports whether server sv has not been retired.
func (s *Scheduler) ServerAlive(sv int) bool { return !s.dead.Has(sv) }

// aliveServer maps sv to itself when alive, otherwise to the nearest
// surviving server (Topo.NearestAlive).
func (s *Scheduler) aliveServer(sv int) int { return s.topo.NearestAlive(sv, s.dead) }

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

// failoverTarget picks the surviving server for one redistributed task
// (Topo.Failover) and re-homes a task-affinity set there, so the rest
// of the set follows.
func (s *Scheduler) failoverTarget(td *TaskDesc) int {
	tgt := s.topo.Failover(td.Class, td.Server, s.liveSetHome(td), s.dead, s.nextFailRR)
	if td.Class == ClassTaskSet {
		s.setHome[td.AffObj] = tgt
	}
	return tgt
}

// nextFailRR advances the failover spread's rotation cursor.
func (s *Scheduler) nextFailRR() int {
	s.failRR++
	return s.failRR - 1
}

// moveTo re-enqueues a drained task on a surviving server.
func (s *Scheduler) moveTo(td *TaskDesc, tgt, victim int, now int64) {
	td.Server = tgt
	tsv := s.Srv[tgt]
	tsv.q.Push(&td.Link)
	s.noteEnqueued(tsv, 1)
	s.Mon.Per[victim].Redistributed++
	s.Trace.Add(now, victim, trace.KindRedistribute, td.T.Name, int64(tgt))
}

// FailServer retires server victim: every task queued there is drained
// and redistributed to surviving servers, the task it was running (if
// any) is re-enqueued as a continuation elsewhere, and the stealing
// victim list shrinks (victimOrder skips dead servers). Safe to call
// for an already-dead server (no-op).
func (s *Scheduler) FailServer(victim int, running *sim.Task, now int64) {
	sv := s.Srv[victim]
	if s.dead.Has(victim) {
		return
	}
	s.dead |= 1 << uint(victim)
	s.rebuildVictimRings()
	s.Mon.Per[victim].FaultEvents++
	s.Trace.Add(now, victim, trace.KindFault, "proc-fail", 0)

	var resumes []*TaskDesc
	for td := sv.resume.pop(); td != nil; td = sv.resume.pop() {
		resumes = append(resumes, td)
	}
	tasks := sv.q.Drain(nil)
	s.queuedTotal -= sv.queued
	sv.queued = 0

	if s.AliveServers() == 0 {
		// No survivor to hand work to; the engine reports the stall.
		return
	}
	for _, td := range tasks {
		s.moveTo(td, s.failoverTarget(td), victim, now)
	}
	for _, td := range resumes {
		tgt := s.aliveServer(victim)
		td.LastProc = tgt
		tsv := s.Srv[tgt]
		tsv.resume.push(&td.Link)
		s.noteEnqueued(tsv, 1)
		s.Mon.Per[victim].Redistributed++
		s.Trace.Add(now, victim, trace.KindRedistribute, td.T.Name, int64(tgt))
	}
	if running != nil {
		if td, ok := running.Data.(*TaskDesc); ok {
			tgt := s.aliveServer(victim)
			s.Eng.Unblock(running, now)
			td.LastProc = tgt
			tsv := s.Srv[tgt]
			tsv.resume.push(&td.Link)
			s.noteEnqueued(tsv, 1)
			s.Mon.Per[victim].Redistributed++
			s.Trace.Add(now, victim, trace.KindRedistribute, td.T.Name, int64(tgt))
		}
	}
	s.Eng.NotifyWork(now)
}

// NoteFault records a non-fatal fault event (slowdown, stall, memory
// degradation) against a processor for perfmon and tracing.
func (s *Scheduler) NoteFault(now int64, proc int, what string, arg int64) {
	if proc >= 0 && proc < len(s.Mon.Per) {
		s.Mon.Per[proc].FaultEvents++
	}
	s.Trace.Add(now, proc, trace.KindFault, what, arg)
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

// WaitEdge derives the wait-for edge of one blocked task from the
// BlockedOn marker its descriptor recorded before parking.
func (s *Scheduler) WaitEdge(t *sim.Task) fault.WaitEdge {
	w := fault.WaitEdge{Task: t.Name, On: "unknown"}
	td, ok := t.Data.(*TaskDesc)
	if !ok {
		return w
	}
	switch on := td.BlockedOn.(type) {
	case *Monitor:
		w.On = "monitor"
		w.Object = on.Addr
		if o := on.Owner(); o != nil && o.T != nil {
			w.Holder = o.T.Name
		}
	case *Cond:
		w.On = "condition"
	case *Scope:
		w.On = "scope"
		w.Pending = on.Pending()
	}
	return w
}
