package cool

import (
	"fmt"
	"strings"

	"github.com/coolrts/cool/internal/perfmon"
)

// Counters are the performance-monitor event counts for one processor or
// aggregated over the machine — the analogue of the DASH hardware
// performance monitor used for the paper's cache-miss figures.
type Counters = perfmon.Counters

// Report summarizes one simulated execution.
type Report struct {
	Cycles     int64 // parallel execution time (max processor clock)
	Processors int   // Config.Processors
	BusyCycles int64 // sum over processors of cycles running tasks
	IdleCycles int64 // sum over processors of cycles waiting for work
	// SetSplits counts task-affinity set members enqueued or stolen away
	// from their set's home; it must be zero under the default whole-set
	// stealing policy on either backend (see Runtime.SetSplits).
	SetSplits int64
	Total     Counters
	Per       []Counters
}

// Utilization returns busy cycles as a fraction of total processor-cycles.
func (r Report) Utilization() float64 {
	denom := r.Cycles * int64(r.Processors)
	if denom == 0 {
		return 0
	}
	return float64(r.BusyCycles) / float64(denom)
}

// Report captures the current performance-monitor state. Call after Run.
// On the native backend, Cycles/BusyCycles/IdleCycles are wall-clock
// nanoseconds (elapsed, summed task-execution time, summed parked time)
// and the memory-system counters are zero; the runtime counters (tasks,
// spawns, steals, locks, wakes) have the same meaning on both backends.
func (rt *Runtime) Report() Report {
	r := Report{
		Cycles:     rt.ElapsedCycles(),
		Processors: rt.cfg.Processors,
		SetSplits:  rt.SetSplits(),
		Total:      rt.mon.Total(),
		Per:        append([]Counters(nil), rt.mon.Per...),
	}
	if rt.backend == BackendNative {
		r.BusyCycles, r.IdleCycles = rt.nat.BusyIdleNanos()
		return r
	}
	for _, p := range rt.eng.Procs {
		r.BusyCycles += p.Busy
		r.IdleCycles += p.Idle
	}
	return r
}

// CounterSnapshot is one machine-wide counter reading, for monitoring and
// external policy code. The steal/wake/deadline-miss fields are
// cumulative since the run started; Queued and Parked are instantaneous
// gauges.
type CounterSnapshot struct {
	StealTries     int64
	FailedSteals   int64
	StealsLocal    int64
	StealsRemote   int64
	SetSteals      int64
	TargetedWakes  int64
	BroadcastWakes int64
	LockContention int64
	DeadlineMisses int64
	Completed      int64 // tasks executed, or shed past their deadline, to completion

	// Memory system (simulator backend; zero natively).
	Refs         int64
	RemoteMisses int64 // non-local misses (remote + dirty)

	Queued  int64 // gauge: tasks queued machine-wide right now
	Parked  int64 // gauge: workers idle-parked right now
	Workers int64 // the runtime's processor count
}

// CounterSnapshot sums the per-processor counter rows into one
// machine-wide reading and adds the backend's queue and park gauges and
// the processor count. Call it after Run: while a native run executes,
// each row belongs to its worker's goroutine.
func (rt *Runtime) CounterSnapshot() CounterSnapshot {
	var s CounterSnapshot
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
		s.DeadlineMisses += p.DeadlineMisses
		s.Completed += p.TasksRun + p.DeadlineMisses
		s.Refs += p.Refs
		s.RemoteMisses += p.RemoteMisses + p.DirtyMisses
	}
	s.Workers = int64(rt.cfg.Processors)
	if rt.backend == BackendNative {
		s.Queued = int64(rt.nat.QueuedTasks())
		s.Parked = int64(rt.nat.ParkedWorkers())
		return s
	}
	s.Queued = int64(rt.sched.QueuedTasks())
	s.Parked = int64(rt.eng.ParkedCount())
	return s
}

// String renders a compact human-readable summary.
func (r Report) String() string {
	var b strings.Builder
	t := r.Total
	fmt.Fprintf(&b, "cycles=%d procs=%d util=%.2f\n", r.Cycles, r.Processors, r.Utilization())
	fmt.Fprintf(&b, "refs=%d miss=%d (rate %.4f) local=%d remote=%d dirty=%d localFrac=%.2f\n",
		t.Refs, t.Misses(), t.MissRate(), t.LocalMisses, t.RemoteMisses, t.DirtyMisses, t.LocalFraction())
	fmt.Fprintf(&b, "tasks=%d atHome=%.2f spawns=%d steals(local=%d remote=%d sets=%d) lockBlocks=%d",
		t.TasksRun, t.HomeFraction(), t.Spawns, t.StealsLocal, t.StealsRemote, t.SetSteals, t.LockBlocks)
	return b.String()
}
