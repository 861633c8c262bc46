package cool

import (
	"fmt"
	"sort"

	"github.com/coolrts/cool/internal/native"
)

// This file is the public surface of elastic worker pools and the SLO
// layer on the native backend: live pool growth (AddWorkers), planned
// worker retirement (Retire / RetireWorkers — a clean drain, distinct
// from a fault-injected kill), the pool-membership timeline reported
// after the run (PoolEvent), and overload shedding (ShedPolicy, with
// per-spawn WithPriority / WithDeadline options).

// ShedPolicy arms the native backend's SLO layer (Config.Shed):
// per-spawn priorities and deadlines are enforced at dispatch, and
// under overload the runtime sheds the lowest-priority work first. A
// shed task completes for every liveness mechanism (its waitfor scope,
// Run's termination) without running its body; the drops are counted in
// Counters.TasksShed and Counters.DeadlineMisses.
type ShedPolicy = native.ShedPolicy

// PoolEvent is one worker-pool membership change, in occurrence order:
// "add" (AddWorkers or a plan's AddWorker event grew the pool), "drain"
// (planned retirement completed; DurationNS carries the
// request-to-completion latency and Moved the tasks re-homed), or
// "kill" (a fault-injected FailServer). A healthy fixed-size run reports no events.
type PoolEvent = native.PoolEvent

// elasticErr reports an elastic-pool call on the wrong backend.
func (rt *Runtime) elasticErr(op string) error {
	if rt.backend != BackendNative {
		return fmt.Errorf("cool: %s requires Backend: BackendNative", op)
	}
	return fmt.Errorf("cool: %s requires spare capacity (Config.MaxProcessors)", op)
}

// AddWorkers grows the native worker pool by n mid-run, activating
// spare capacity reserved by Config.MaxProcessors. The new workers
// join the victim rings and accept placements immediately. Returns the
// processor ids added. Callable only while Run is executing.
func (rt *Runtime) AddWorkers(n int) ([]int, error) {
	if rt.backend != BackendNative {
		return nil, rt.elasticErr("AddWorkers")
	}
	return rt.nat.AddWorkers(n)
}

// Retire requests a planned drain of n workers (the runtime picks the
// victims): each stops accepting new placements, finishes its running
// task, and re-homes its queued work affinity-preserving — whole
// task-affinity sets move as a unit and never split. The request is
// asynchronous; completion appears as a "drain" PoolEvent. At least
// one worker always survives. Returns the ids chosen.
func (rt *Runtime) Retire(n int) ([]int, error) {
	if rt.backend != BackendNative {
		return nil, rt.elasticErr("Retire")
	}
	return rt.nat.DrainN(n)
}

// RetireWorkers is Retire for an explicit set of processor ids.
func (rt *Runtime) RetireWorkers(ids ...int) error {
	if rt.backend != BackendNative {
		return rt.elasticErr("RetireWorkers")
	}
	return rt.nat.Drain(ids...)
}

// PoolSize returns the number of workers currently accepting work:
// Processors on the simulator, the live elastic pool size on the
// native backend.
func (rt *Runtime) PoolSize() int {
	if rt.backend == BackendNative {
		return rt.nat.PoolSize()
	}
	return rt.cfg.Processors
}

// PoolEvents returns the pool-membership timeline (adds, drains,
// kills) ordered by completion time. Empty on the simulator and on
// healthy fixed-size native runs. Call after Run for a stable view.
func (rt *Runtime) PoolEvents() []PoolEvent {
	if rt.backend != BackendNative {
		return nil
	}
	evs := rt.nat.PoolEvents() // a copy
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].TimeNS < evs[b].TimeNS })
	return evs
}
