package cool

import (
	"fmt"
	"strings"

	"github.com/coolrts/cool/internal/fault"
	"github.com/coolrts/cool/internal/sim"
)

// FaultPlan is a deterministic schedule of fault events applied to a
// run: processor slowdowns, stalls, permanent failures and
// memory-module degradation. On the simulator every event is pinned to
// simulated time, so a run with the same Config and the same plan
// replays cycle for cycle — fault experiments are reproducible. Fault plans run on the simulator only: NewRuntime
// rejects one on the native backend with *UnsupportedOnNativeError.
// The builder methods append events and return the plan for chaining:
//
//	cfg.Faults = cool.NewFaultPlan().
//		SlowProcessor(3, 0, 8, 0).   // P3 is an 8x straggler from t=0
//		FailProcessor(5, 200_000)    // P5 dies at cycle 200k
type FaultPlan struct {
	plan fault.Plan
}

// NewFaultPlan returns an empty fault plan.
func NewFaultPlan() *FaultPlan { return &FaultPlan{} }

// SlowProcessor multiplies every cycle processor proc executes by
// factor (>= 2), starting at simulated time at and lasting duration
// cycles (0 = rest of the run).
func (p *FaultPlan) SlowProcessor(proc int, at, factor, duration int64) *FaultPlan {
	p.plan.Slow(proc, at, factor, duration)
	return p
}

// StallProcessor freezes processor proc for cycles cycles at time at.
func (p *FaultPlan) StallProcessor(proc int, at, cycles int64) *FaultPlan {
	p.plan.Stall(proc, at, cycles)
	return p
}

// FailProcessor retires processor proc permanently at time at: its
// queued tasks are redistributed to surviving servers and it never
// dispatches again. At least one processor must survive the plan.
func (p *FaultPlan) FailProcessor(proc int, at int64) *FaultPlan {
	p.plan.Fail(proc, at)
	return p
}

// DegradeMemory multiplies cluster's memory-module service latency and
// occupancy by factor (>= 2) from time at onward.
func (p *FaultPlan) DegradeMemory(cluster int, at, factor int64) *FaultPlan {
	p.plan.DegradeMemory(cluster, at, factor)
	return p
}

// Len returns the number of events in the plan.
func (p *FaultPlan) Len() int { return len(p.plan.Events) }

// WithoutEvent returns a copy of the plan with event i removed — the
// primitive the differential harness's shrinker uses to minimize a
// failing plan one event at a time.
func (p *FaultPlan) WithoutEvent(i int) *FaultPlan {
	q := &FaultPlan{}
	q.plan.Events = append(q.plan.Events, p.plan.Events[:i]...)
	q.plan.Events = append(q.plan.Events, p.plan.Events[i+1:]...)
	return q
}

// BuilderString renders the plan as the chain of builder calls that
// reconstructs it — the copy-pasteable repro the differential harness
// prints for a shrunk failing plan.
func (p *FaultPlan) BuilderString() string {
	var b strings.Builder
	b.WriteString("cool.NewFaultPlan()")
	for _, ev := range p.plan.Events {
		b.WriteString(".\n\t")
		switch ev.Kind {
		case fault.Slowdown:
			fmt.Fprintf(&b, "SlowProcessor(%d, %d, %d, %d)", ev.Proc, ev.At, ev.Factor, ev.Cycles)
		case fault.Stall:
			fmt.Fprintf(&b, "StallProcessor(%d, %d, %d)", ev.Proc, ev.At, ev.Cycles)
		case fault.Fail:
			fmt.Fprintf(&b, "FailProcessor(%d, %d)", ev.Proc, ev.At)
		case fault.MemDegrade:
			fmt.Fprintf(&b, "DegradeMemory(%d, %d, %d)", ev.Cluster, ev.At, ev.Factor)
		default:
			fmt.Fprintf(&b, "/* unknown event %v */", ev)
		}
	}
	return b.String()
}

// RandomFaultPlan builds a reproducible plan of n fault events
// (slowdowns, stalls, memory degradation, and at most procs-1
// permanent failures) for stress testing: the same seed always yields
// the same plan. It is the generator behind the differential harness's
// fault arm (coolbench -xcheck).
func RandomFaultPlan(seed int64, procs, clusters, n int) *FaultPlan {
	return &FaultPlan{plan: *fault.Random(seed, procs, clusters, n)}
}

// applyFaults validates the plan against the machine and arms every
// event on the engine's event heap before the run starts.
func (rt *Runtime) applyFaults(p *FaultPlan) error {
	if err := p.plan.Validate(rt.cfg.Processors, rt.cfg.Clusters()); err != nil {
		return fmt.Errorf("cool: invalid Config.Faults: %w", err)
	}
	for _, ev := range p.plan.Events {
		ev := ev
		switch ev.Kind {
		case fault.Slowdown:
			proc := rt.eng.Procs[ev.Proc]
			rt.eng.At(ev.At, func() {
				rt.eng.SlowProc(proc, ev.Factor, ev.Cycles)
				rt.sched.NoteFault(rt.eng.Now(), ev.Proc, "slowdown", ev.Factor)
			})
		case fault.Stall:
			proc := rt.eng.Procs[ev.Proc]
			rt.eng.At(ev.At, func() {
				rt.eng.StallProc(proc, ev.Cycles)
				rt.sched.NoteFault(rt.eng.Now(), ev.Proc, "stall", ev.Cycles)
			})
		case fault.Fail:
			proc := rt.eng.Procs[ev.Proc]
			rt.eng.At(ev.At, func() {
				rt.eng.FailProc(proc) // fail handler redistributes queues
			})
		case fault.MemDegrade:
			rt.eng.At(ev.At, func() {
				rt.caches.DegradeMemory(ev.Cluster, ev.Factor)
				rt.sched.NoteFault(rt.eng.Now(), ev.Cluster*rt.cfg.ClusterSize, "memdegrade", ev.Factor)
			})
		}
	}
	rt.eng.SetFailHandler(func(p *sim.Proc, running *sim.Task, now int64) {
		rt.sched.FailServer(p.ID, running, now)
	})
	return nil
}
