package cool

// This file is the public surface of the adaptive-affinity controller
// (internal/adapt), which runs on the simulator only: Config.Adapt arms
// a per-epoch online controller that reads a counter-delta snapshot and
// turns cluster-only stealing — the paper's one run-time scheduling
// choice — on or off, with hysteresis. The epoch driver is a
// self-rescheduling event at fixed simulated-cycle boundaries, so
// adaptive runs stay bit-deterministic. Every policy change is recorded
// as a BLIS-style decision trace queryable via Report.Decisions and
// rendered by the Chrome trace exporter. Native programs set the knob
// themselves with Ctx.SetClusterStealingOnly.

import (
	"fmt"

	"github.com/coolrts/cool/internal/adapt"
	"github.com/coolrts/cool/internal/trace"
)

// defaultSimAdaptEpoch is the default controller epoch, in simulated
// cycles.
const defaultSimAdaptEpoch = 50_000

// AdaptPolicy configures the online policy controller (Config.Adapt,
// simulator only). The zero value selects the defaults. Epoch is the
// controller interval in simulated cycles (default 50_000), and Start,
// when non-nil, warm-starts the controller and the live scheduler from a
// policy harvested with Runtime.AdaptState at the end of an earlier run.
type AdaptPolicy = adapt.Policy

// validateAdapt rejects nonsensical controller configurations.
func validateAdapt(p *AdaptPolicy) error {
	if p.Epoch < 0 {
		return fmt.Errorf("cool: Config.Adapt.Epoch must not be negative")
	}
	return nil
}

// CounterSnapshot is one machine-wide counter reading — the controller's
// input API, exposed for external policy controllers and monitoring.
// The steal/wake/shed fields are cumulative since the run started;
// Queued, Parked, and Workers are instantaneous gauges, and Delta
// subtracts an earlier reading on the cumulative fields only.
type CounterSnapshot = adapt.Snapshot

// AdaptState is the live policy the controller drives: whether
// stealing is restricted to the thief's own cluster.
type AdaptState = adapt.State

// AdaptAlternative is one counterfactual a decision scored but did not
// choose.
type AdaptAlternative = adapt.Alternative

// AdaptDecision is one recorded policy change: the knob, from what to
// what, the triggering counter delta, and the scored alternative not
// taken. Folding a run's decisions over its initial state
// (ReplayAdaptDecisions) reproduces the final policy exactly.
type AdaptDecision = adapt.Decision

// ReplayAdaptDecisions folds a decision trace over an initial state
// and returns the final policy. For any completed adaptive run whose
// trace did not overflow its 256-decision cap, folding report.Decisions
// over Runtime.AdaptInitialState equals the state Runtime.AdaptState
// reports — every policy change is reconstructible from the trace.
func ReplayAdaptDecisions(init AdaptState, ds []AdaptDecision) AdaptState {
	return adapt.Replay(init, ds)
}

// CounterSnapshot sums the per-processor counter rows into one
// machine-wide reading and adds the backend's queue, park and pool
// gauges. Call it after Run: while a native run executes, each row
// belongs to its worker's goroutine. (The simulator's epoch driver calls
// it between events, which is equally safe.)
func (rt *Runtime) CounterSnapshot() CounterSnapshot {
	var s adapt.Snapshot
	for i := range rt.mon.Per {
		p := &rt.mon.Per[i]
		s.StealTries += p.StealTries
		s.FailedSteals += p.FailedSteals
		s.StealsLocal += p.StealsLocal
		s.StealsRemote += p.StealsRemote
		s.SetSteals += p.SetSteals
		s.TargetedWakes += p.TargetedWakes
		s.BroadcastWakes += p.BroadcastWakes
		s.LockContention += p.LockContention
		s.TasksShed += p.TasksShed
		s.DeadlineMisses += p.DeadlineMisses
		s.Completed += p.TasksRun + p.TasksShed
		s.Refs += p.Refs
		s.RemoteMisses += p.RemoteMisses + p.DirtyMisses
		s.StolenRefs += p.StolenRefs
		s.StolenMisses += p.StolenMisses
	}
	if rt.backend == BackendNative {
		s.Queued = int64(rt.nat.QueuedTasks())
		s.Parked = int64(rt.nat.ParkedWorkers())
		s.Workers = int64(rt.nat.PoolSize())
		return s
	}
	s.Queued = int64(rt.sched.QueuedTasks())
	s.Parked = int64(rt.eng.ParkedCount())
	s.Workers = int64(rt.cfg.Processors)
	s.QueuedClusters = int64(rt.sched.QueuedClusters())
	s.Clusters = int64(rt.cfg.Clusters())
	return s
}

// AdaptState returns the controller's current policy, or false
// when Config.Adapt was not set. Call after Run for a settled view.
func (rt *Runtime) AdaptState() (AdaptState, bool) {
	if rt.adaptCtl == nil {
		return AdaptState{}, false
	}
	return rt.adaptCtl.State(), true
}

// AdaptInitialState returns the policy the controller actually
// started from, or false when Config.Adapt was not set. This is the
// correct seed for ReplayAdaptDecisions even when the runtime's
// effective policy differs from the base configuration (for example,
// an application variant forcing cluster-only stealing).
func (rt *Runtime) AdaptInitialState() (AdaptState, bool) {
	if rt.adaptCtl == nil {
		return AdaptState{}, false
	}
	return rt.adaptCtl.Init(), true
}

// adaptDecisions returns the run's raw decision trace (nil when
// Config.Adapt was not set).
func (rt *Runtime) adaptDecisions() []AdaptDecision {
	if rt.adaptCtl == nil {
		return nil
	}
	return rt.adaptCtl.Decisions()
}

// installAdaptSim arms the controller: a self-rescheduling engine event
// steps it at fixed simulated-cycle boundaries, so an adaptive run is
// exactly as deterministic as a static one. The event stops
// rescheduling itself once the run has drained.
func (rt *Runtime) installAdaptSim(p *AdaptPolicy) {
	pol := *p
	if pol.Epoch <= 0 {
		pol.Epoch = defaultSimAdaptEpoch
	}
	st0 := adapt.State{ClusterOnly: rt.pol.ClusterStealingOnly}
	if pol.Start != nil {
		st0 = *pol.Start
		rt.sched.SetClusterStealingOnly(st0.ClusterOnly)
	}
	ctl := adapt.New(pol, st0)
	rt.adaptCtl = ctl
	seen := 0
	var step func()
	step = func() {
		if rt.eng.LiveTasks() == 0 {
			return
		}
		now := rt.eng.Now()
		st, changed := ctl.Epoch(now, rt.CounterSnapshot())
		if changed {
			rt.sched.SetClusterStealingOnly(st.ClusterOnly)
			for n := ctl.Count(); seen < n; seen++ {
				d := ctl.DecisionAt(seen)
				rt.sched.Trace.Add(now, -1, trace.KindAdapt, d.Knob+" "+d.Action, d.To)
			}
		}
		rt.eng.At(now+pol.Epoch, step)
	}
	rt.eng.At(pol.Epoch, step)
}
