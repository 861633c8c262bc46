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
