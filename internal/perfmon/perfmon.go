// Package perfmon is the analogue of the DASH hardware performance
// monitor the paper uses for its cache-miss figures: a set of per-processor
// counters covering the memory system (references, misses by where they
// were serviced) and the runtime (task placement, stealing, locking).
package perfmon

// Counters is one processor's event counts, or their sum over the
// machine (public as cool.Counters).
type Counters struct {
	// Memory system.
	Refs          int64 // simulated memory references (cache lines touched)
	L1Hits        int64
	L2Hits        int64
	LocalMisses   int64 // misses serviced by local cluster memory
	RemoteMisses  int64 // misses serviced by a remote cluster's memory
	DirtyMisses   int64 // misses serviced cache-to-cache from a dirty line
	Upgrades      int64 // write upgrades of shared lines
	Invalidations int64 // lines invalidated in this cache by remote writes
	Writebacks    int64 // dirty lines written back on eviction
	Prefetches    int64 // prefetch issues (per line)
	PrefetchFills int64 // prefetches that actually brought a line in

	// Cycle accounting.
	MemCycles     int64 // cycles stalled on the memory system
	ComputeCycles int64 // cycles doing useful work

	// Runtime events.
	TasksRun     int64 // tasks executed to completion on this processor
	TasksAtHome  int64 // tasks that ran on their affinity-preferred server
	Spawns       int64 // tasks created by code running here
	SpawnBatches int64 // SpawnN bursts published as one batch (native backend only)
	StealTries   int64 // steal probes issued
	StealsLocal  int64 // successful steals from the local cluster
	StealsRemote int64 // successful steals from a remote cluster
	SetSteals    int64 // whole task-affinity sets stolen
	FailedSteals int64 // steal probes that examined a victim and took nothing
	LockBlocks   int64 // monitor acquisitions that had to block

	// LockContention counts scheduler-internal lock acquisitions (a
	// worker's queue mutex or a set-table shard mutex) whose TryLock
	// fast path failed and had to block. The simulator is single-threaded
	// and reports zero; on the native backend it measures how contended
	// the decentralized placement/steal protocol is.
	LockContention int64

	// Idle-wakeup traffic (counted against the waking server).
	TargetedWakes  int64 // wakeups limited to the first K idle processors
	BroadcastWakes int64 // wakeups that fell back to waking every idle processor

	// Fault injection and degradation.
	FaultEvents   int64 // injected fault events that struck this processor
	Redistributed int64 // tasks drained off this (failed) server to survivors
}

// Misses returns the total cache misses serviced by any memory.
func (c Counters) Misses() int64 {
	return c.LocalMisses + c.RemoteMisses + c.DirtyMisses
}

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

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Refs += o.Refs
	c.L1Hits += o.L1Hits
	c.L2Hits += o.L2Hits
	c.LocalMisses += o.LocalMisses
	c.RemoteMisses += o.RemoteMisses
	c.DirtyMisses += o.DirtyMisses
	c.Upgrades += o.Upgrades
	c.Invalidations += o.Invalidations
	c.Writebacks += o.Writebacks
	c.Prefetches += o.Prefetches
	c.PrefetchFills += o.PrefetchFills
	c.MemCycles += o.MemCycles
	c.ComputeCycles += o.ComputeCycles
	c.TasksRun += o.TasksRun
	c.TasksAtHome += o.TasksAtHome
	c.Spawns += o.Spawns
	c.SpawnBatches += o.SpawnBatches
	c.StealTries += o.StealTries
	c.StealsLocal += o.StealsLocal
	c.StealsRemote += o.StealsRemote
	c.SetSteals += o.SetSteals
	c.FailedSteals += o.FailedSteals
	c.LockBlocks += o.LockBlocks
	c.LockContention += o.LockContention
	c.TargetedWakes += o.TargetedWakes
	c.BroadcastWakes += o.BroadcastWakes
	c.FaultEvents += o.FaultEvents
	c.Redistributed += o.Redistributed
}

// Monitor holds one Counters per processor.
type Monitor struct {
	Per []Counters
}

// New creates a monitor for n processors.
func New(n int) *Monitor {
	return &Monitor{Per: make([]Counters, n)}
}

// Total returns the sum over all processors.
func (m *Monitor) Total() Counters {
	var t Counters
	for i := range m.Per {
		t.Add(m.Per[i])
	}
	return t
}

// Reset zeroes every counter (e.g. after a warm-up phase).
func (m *Monitor) Reset() {
	for i := range m.Per {
		m.Per[i] = Counters{}
	}
}
