package native

import (
	"math/bits"
	"sync/atomic"
	"time"

	"github.com/coolrts/cool/internal/adapt"
	"github.com/coolrts/cool/internal/trace"
)

// This file is the native side of the adaptive-affinity controller: a
// machine-wide atomic counter mirror the timekeeper samples each epoch,
// and the epoch step that runs the pure controller (internal/adapt) and
// stores its one decision — cluster-only stealing — into the
// clusterOnly atomic.Bool the steal path already reads.
//
// The perfmon rows obey a strict one-writer-per-row rule, so the
// timekeeper cannot sum them while workers run. Instead, every
// slow-path counter site the controller feeds on (steal probes, wake
// decisions, lock contention, sheds) also bumps one shared atomic in
// the mirror. Those sites already pay a lock, CAS, or channel
// operation, so one more uncontended atomic add does not change their
// cost class, and the uncontended task fast path is untouched.

// adaptCounters is the machine-wide mirror of the slow-path scheduler
// counters, readable at any time from any goroutine. Always maintained
// (not just under Config.Adapt) so CounterSnapshot works on every run.
type adaptCounters struct {
	stealTries     atomicPadded
	failedSteals   atomicPadded
	stealsLocal    atomicPadded
	stealsRemote   atomicPadded
	setSteals      atomicPadded
	targetedWakes  atomicPadded
	broadcastWakes atomicPadded
	lockContention atomicPadded
	tasksShed      atomicPadded
	deadlineMisses atomicPadded
}

// atomicPadded is an atomic counter on its own cache line, so the
// mirror's columns don't false-share when different workers bump
// different counters.
type atomicPadded struct {
	n atomic.Int64
	_ [56]byte
}

// reset zeroes every mirror column (Reset only — never during a run).
func (m *adaptCounters) reset() {
	for _, c := range []*atomicPadded{
		&m.stealTries, &m.failedSteals, &m.stealsLocal, &m.stealsRemote,
		&m.setSteals, &m.targetedWakes, &m.broadcastWakes,
		&m.lockContention, &m.tasksShed, &m.deadlineMisses,
	} {
		c.n.Store(0)
	}
}

// adaptRT is the per-run controller harness (nil unless Config.Adapt
// was set). The controller itself and the trace bookkeeping are owned
// by the timekeeper goroutine while the run executes; Run's
// tkDone.Wait() orders them before any post-Run accessor.
type adaptRT struct {
	ctl    *adapt.Controller
	epoch  int64 // controller interval, ns
	nextNS int64 // next epoch boundary (timekeeper-private)
	seen   int   // decisions already exported as trace events
	events []trace.Event
}

// initAdapt builds the controller harness at New (and again at Reset).
func (rt *Runtime) initAdapt(pol adapt.Policy) {
	epoch := pol.Epoch
	if epoch <= 0 {
		epoch = int64(time.Millisecond)
	}
	st0 := adapt.State{ClusterOnly: rt.pol.ClusterStealingOnly}
	if pol.Start != nil {
		st0 = *pol.Start
		rt.clusterOnly.Store(st0.ClusterOnly)
	}
	rt.adapt = &adaptRT{ctl: adapt.New(pol, st0), epoch: epoch}
}

// CounterSnapshot returns the machine-wide scheduler counters: the
// cumulative slow-path mirror plus the instantaneous queue/park/pool
// gauges. Safe to call at any time, including while Run executes.
func (rt *Runtime) CounterSnapshot() adapt.Snapshot {
	return adapt.Snapshot{
		StealTries:     rt.mirror.stealTries.n.Load(),
		FailedSteals:   rt.mirror.failedSteals.n.Load(),
		StealsLocal:    rt.mirror.stealsLocal.n.Load(),
		StealsRemote:   rt.mirror.stealsRemote.n.Load(),
		SetSteals:      rt.mirror.setSteals.n.Load(),
		TargetedWakes:  rt.mirror.targetedWakes.n.Load(),
		BroadcastWakes: rt.mirror.broadcastWakes.n.Load(),
		LockContention: rt.mirror.lockContention.n.Load(),
		TasksShed:      rt.mirror.tasksShed.n.Load(),
		DeadlineMisses: rt.mirror.deadlineMisses.n.Load(),
		Completed:      rt.completed.Load(),
		Queued:         rt.queuedTotal.Load(),
		Parked:         int64(bits.OnesCount64(rt.parked.Load())),
		Workers:        int64(rt.aliveWorkers()),
	}
}

// Decisions returns the adaptive controller's decision trace (nil when
// Config.Adapt was not set). Call after Run.
func (rt *Runtime) Decisions() []adapt.Decision {
	if rt.adapt == nil {
		return nil
	}
	return rt.adapt.ctl.Decisions()
}

// AdaptState returns the controller's current policy, or false
// when Config.Adapt was not set. Call after Run.
func (rt *Runtime) AdaptState() (adapt.State, bool) {
	if rt.adapt == nil {
		return adapt.State{}, false
	}
	return rt.adapt.ctl.State(), true
}

// AdaptInit returns the policy the controller started from, or
// false when Config.Adapt was not set — the seed for replaying the
// decision trace.
func (rt *Runtime) AdaptInit() (adapt.State, bool) {
	if rt.adapt == nil {
		return adapt.State{}, false
	}
	return rt.adapt.ctl.Init(), true
}

// adaptTick is the timekeeper's per-tick check: when the epoch
// boundary has passed, run one controller epoch over the mirror
// snapshot and apply its decision to the live clusterOnly word. Runs
// only on the timekeeper goroutine.
func (rt *Runtime) adaptTick(now int64) {
	a := rt.adapt
	if now < a.nextNS {
		return
	}
	a.nextNS = now + a.epoch
	st, changed := a.ctl.Epoch(now, rt.CounterSnapshot())
	if !changed {
		return
	}
	rt.clusterOnly.Store(st.ClusterOnly)
	if rt.cfg.TraceCapacity > 0 {
		for n := a.ctl.Count(); a.seen < n; a.seen++ {
			if len(a.events) >= rt.cfg.TraceCapacity {
				continue
			}
			d := a.ctl.DecisionAt(a.seen)
			a.events = append(a.events, trace.Event{
				Time: now, Proc: -1, Kind: trace.KindAdapt,
				Task: d.Knob + " " + d.Action, Arg: d.To,
			})
		}
	}
}
