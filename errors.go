package cool

import (
	"fmt"

	"github.com/coolrts/cool/internal/fault"
)

// UnsupportedOnNativeError is returned by NewRuntime when a
// simulator-only configuration option is combined with BackendNative:
// Machine, which describes the simulated machine (latencies, caches,
// the interleaving quantum), or a fault plan (Faults), which only the
// simulator runs. Deadline is not rejected: it runs natively with
// cycles read as wall-clock nanoseconds. Callers that want to run the
// same Config on both backends should strip the sim-only options for
// the native run rather than treat this as a failure.
type UnsupportedOnNativeError struct {
	Option string // the Config field that cannot apply natively
}

func (e *UnsupportedOnNativeError) Error() string {
	return fmt.Sprintf("cool: Config.%s is simulator-only and unsupported on the native backend", e.Option)
}

// TaskPanicError is returned by Run when a task's body panicked. It
// carries the task's identity, the processor it was running on, and the
// simulated time of the failure, so faulted runs can be diagnosed and
// replayed.
type TaskPanicError = fault.TaskFailure

// WaitEdge is one edge of a deadlock's wait-for graph: a blocked task
// and the synchronization object it waits on.
type WaitEdge = fault.WaitEdge

// DeadlockError is returned by Run when tasks remain blocked forever.
// Waits lists each blocked task with the monitor, condition variable, or
// waitfor scope it is parked on — the wait-for graph of the deadlock.
type DeadlockError = fault.Deadlock

// DeadlineExceededError is returned by Run when Config.Deadline was set
// and simulated time (wall-clock time on the native backend) passed it
// with work still outstanding: a hard budget on the run, and the one
// bound that stops a runaway simulation. The error carries a progress
// snapshot: per-server queue depths and, on the simulator, the blocked
// tasks with what they wait on.
type DeadlineExceededError = fault.DeadlineExceeded
