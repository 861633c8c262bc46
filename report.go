package cool

import (
	"fmt"
	"strings"
)

// Counters are the performance-monitor event counts for one processor or
// aggregated over the machine — the analogue of the DASH hardware
// performance monitor used for the paper's cache-miss figures.
type Counters struct {
	Refs          int64 // cache-line references
	L1Hits        int64
	L2Hits        int64
	LocalMisses   int64 // misses serviced by local cluster memory
	RemoteMisses  int64 // misses serviced by remote cluster memory
	DirtyMisses   int64 // misses serviced cache-to-cache from a dirty line
	Upgrades      int64
	Invalidations int64
	Writebacks    int64
	Prefetches    int64 // prefetch issues (per line)
	PrefetchFills int64 // prefetches that brought a line in

	MemCycles     int64
	ComputeCycles int64

	TasksRun     int64
	TasksAtHome  int64 // tasks that ran on their affinity-preferred server
	Spawns       int64
	SpawnBatches int64 // SpawnN bursts published as one batch (native backend; zero on the simulator)
	StealTries   int64
	StealsLocal  int64 // successful same-cluster steals
	StealsRemote int64
	SetSteals    int64
	FailedSteals int64 // steal probes that examined a victim and took nothing
	LockBlocks   int64

	// LockContention counts scheduler-internal lock acquisitions (a
	// worker's queue mutex, a set-table shard mutex) that missed their
	// TryLock fast path and had to block. Always zero on the simulator
	// (it is single-threaded); on the native backend it measures
	// contention on the decentralized placement/steal locks.
	LockContention int64

	TargetedWakes  int64 // idle wakeups limited to the first K parked processors
	BroadcastWakes int64 // idle wakeups that woke every parked processor

	FaultEvents   int64 // injected fault events that struck this processor
	Redistributed int64 // tasks drained off this (failed) server to survivors
	Retries       int64 // task launches aborted here and retried elsewhere
	GaveUp        int64 // launches whose retry budget ran out (fails the run)

	TasksShed      int64 // tasks dropped by the overload-shedding SLO layer
	DeadlineMisses int64 // tasks shed because their spawn deadline had expired
}

// Misses returns the total cache misses.
func (c Counters) Misses() int64 { return c.LocalMisses + c.RemoteMisses + c.DirtyMisses }

// MissRate returns misses per reference.
func (c Counters) MissRate() float64 {
	if c.Refs == 0 {
		return 0
	}
	return float64(c.Misses()) / float64(c.Refs)
}

// LocalFraction returns the fraction of misses serviced without crossing
// to a remote cluster (local memory plus same-cluster dirty lines count
// as local in the cache model's latency charging).
func (c Counters) LocalFraction() float64 {
	m := c.Misses()
	if m == 0 {
		return 1
	}
	return float64(c.LocalMisses) / float64(m)
}

// HomeFraction returns the fraction of tasks that executed on their
// affinity-preferred server.
func (c Counters) HomeFraction() float64 {
	if c.TasksRun == 0 {
		return 1
	}
	return float64(c.TasksAtHome) / float64(c.TasksRun)
}

// Report summarizes one simulated execution.
type Report struct {
	Cycles     int64 // parallel execution time (max processor clock)
	Processors int   // initial pool size (Config.Processors)
	// MaxProcessors is the worker capacity: equal to Processors on the
	// simulator and on fixed-size native pools, Config.MaxProcessors on
	// elastic ones. Per has one row per capacity slot, so workers added
	// mid-run report their counters like any other.
	MaxProcessors int
	BusyCycles    int64 // sum over processors of cycles running tasks
	IdleCycles    int64 // sum over processors of cycles waiting for work
	// SetSplits counts task-affinity set members enqueued or stolen away
	// from their set's home; it must be zero under the default whole-set
	// stealing policy on either backend (see Runtime.SetSplits).
	SetSplits int64
	Total     Counters
	Per       []Counters
	// PoolEvents is the worker-pool membership timeline (adds, planned
	// drains, fault kills) in completion order; empty on the simulator
	// and on healthy fixed-size native runs.
	PoolEvents []PoolEvent
	// Decisions is the adaptive controller's decision trace in the
	// order the policy changes were taken; empty unless Config.Adapt
	// was set. Folding it over AdaptInitialState with
	// ReplayAdaptDecisions reconstructs the final policy exactly.
	Decisions []AdaptDecision
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
		Cycles:        rt.ElapsedCycles(),
		Processors:    rt.cfg.Processors,
		MaxProcessors: len(rt.mon.Per),
		SetSplits:     rt.SetSplits(),
		Per:           make([]Counters, len(rt.mon.Per)),
		PoolEvents:    rt.PoolEvents(),
		Decisions:     pubDecisions(rt.adaptDecisions()),
	}
	for i := range rt.mon.Per {
		p := rt.mon.Per[i]
		c := Counters{
			Refs:           p.Refs,
			L1Hits:         p.L1Hits,
			L2Hits:         p.L2Hits,
			LocalMisses:    p.LocalMisses,
			RemoteMisses:   p.RemoteMisses,
			DirtyMisses:    p.DirtyMisses,
			Upgrades:       p.Upgrades,
			Invalidations:  p.Invalidations,
			Writebacks:     p.Writebacks,
			Prefetches:     p.Prefetches,
			PrefetchFills:  p.PrefetchFills,
			MemCycles:      p.MemCycles,
			ComputeCycles:  p.ComputeCycles,
			TasksRun:       p.TasksRun,
			TasksAtHome:    p.TasksAtHome,
			Spawns:         p.Spawns,
			SpawnBatches:   p.SpawnBatches,
			StealTries:     p.StealTries,
			StealsLocal:    p.StealsLocal,
			StealsRemote:   p.StealsRemote,
			SetSteals:      p.SetSteals,
			FailedSteals:   p.FailedSteals,
			LockBlocks:     p.LockBlocks,
			LockContention: p.LockContention,
			TargetedWakes:  p.TargetedWakes,
			BroadcastWakes: p.BroadcastWakes,
			FaultEvents:    p.FaultEvents,
			Redistributed:  p.Redistributed,
			Retries:        p.Retries,
			GaveUp:         p.GaveUp,
			TasksShed:      p.TasksShed,
			DeadlineMisses: p.DeadlineMisses,
		}
		r.Per[i] = c
		addCounters(&r.Total, c)
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

func addCounters(dst *Counters, c Counters) {
	dst.Refs += c.Refs
	dst.L1Hits += c.L1Hits
	dst.L2Hits += c.L2Hits
	dst.LocalMisses += c.LocalMisses
	dst.RemoteMisses += c.RemoteMisses
	dst.DirtyMisses += c.DirtyMisses
	dst.Upgrades += c.Upgrades
	dst.Invalidations += c.Invalidations
	dst.Writebacks += c.Writebacks
	dst.Prefetches += c.Prefetches
	dst.PrefetchFills += c.PrefetchFills
	dst.MemCycles += c.MemCycles
	dst.ComputeCycles += c.ComputeCycles
	dst.TasksRun += c.TasksRun
	dst.TasksAtHome += c.TasksAtHome
	dst.Spawns += c.Spawns
	dst.SpawnBatches += c.SpawnBatches
	dst.StealTries += c.StealTries
	dst.StealsLocal += c.StealsLocal
	dst.StealsRemote += c.StealsRemote
	dst.SetSteals += c.SetSteals
	dst.FailedSteals += c.FailedSteals
	dst.LockBlocks += c.LockBlocks
	dst.LockContention += c.LockContention
	dst.TargetedWakes += c.TargetedWakes
	dst.BroadcastWakes += c.BroadcastWakes
	dst.FaultEvents += c.FaultEvents
	dst.Redistributed += c.Redistributed
	dst.Retries += c.Retries
	dst.GaveUp += c.GaveUp
	dst.TasksShed += c.TasksShed
	dst.DeadlineMisses += c.DeadlineMisses
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
