package cool

import (
	"fmt"
	"strings"

	"github.com/coolrts/cool/internal/core"
	"github.com/coolrts/cool/internal/fault"
	"github.com/coolrts/cool/internal/sim"
)

// UnsupportedOnNativeError is returned by NewRuntime when a
// configuration option that requires the simulated machine itself —
// Machine (latency/cache overrides), CycleLimit (a bound on simulated
// time), Quantum (interleaving control), or Adapt (the online controller,
// stepped at simulated-cycle epochs) — is combined with BackendNative. Fault plans, retries, and deadlines are NOT rejected:
// they run natively with cycle quantities read as wall-clock
// nanoseconds. Callers that want to run the same Config on both
// backends should strip the sim-only options for the native run rather
// than treat this as a failure.
type UnsupportedOnNativeError struct {
	Option string // the Config field that cannot apply natively
}

func (e *UnsupportedOnNativeError) Error() string {
	return fmt.Sprintf("cool: Config.%s requires simulated time and is unsupported on the native backend", e.Option)
}

// TaskPanicError is returned by Run when a task's body panicked (or a
// fault plan injected a panic into it). It carries the task's identity,
// the processor it was running on, and the simulated time of the
// failure, so faulted runs can be diagnosed and replayed.
type TaskPanicError = fault.TaskFailure

// WaitEdge is one edge of a deadlock's wait-for graph: a blocked task
// and the synchronization object it waits on.
type WaitEdge = fault.WaitEdge

// DeadlockError is returned by Run when tasks remain blocked forever.
// Waits lists each blocked task with the monitor, condition variable, or
// waitfor scope it is parked on — the wait-for graph of the deadlock.
type DeadlockError struct {
	Time  int64 // simulated cycle the run stopped
	Waits []WaitEdge
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cool: deadlock at cycle %d: %d task(s) blocked forever", e.Time, len(e.Waits))
	for _, w := range e.Waits {
		b.WriteString("\n  ")
		b.WriteString(w.String())
	}
	return b.String()
}

// NoProgressError is returned by Run when the no-progress watchdog
// fired with work still outstanding: on the simulator, Config.CycleLimit
// was set and simulated time passed it; on the native backend, no task
// completed for the watchdog window (armed automatically when faults or
// retries are configured) while tasks remained live. It carries a clock
// and queue snapshot instead of letting the run spin (or hang) forever.
type NoProgressError = fault.NoProgress

// TaskAbortError is returned by Run when a transient launch failure
// (a FailTask event or a FlakyProcessor window) struck a task and the
// retry budget — zero attempts without Config.Retry — was exhausted.
type TaskAbortError = fault.TaskAbort

// DeadlineExceededError is returned by Run when Config.Deadline was set
// and simulated time passed it with work still outstanding. Unlike
// NoProgressError (a watchdog against runaway simulations), the
// deadline is a hard budget on an otherwise healthy run, so the error
// carries a progress snapshot: per-server queue depths and the blocked
// tasks with what they wait on.
type DeadlineExceededError = fault.DeadlineExceeded

// wrapRunError converts the simulator's failures into the public typed
// errors. *TaskPanicError and *TaskAbortError from either engine, and
// the native timekeeper's *DeadlineExceededError and *NoProgressError,
// are declared once (internal/fault) and pass through as they are; the
// simulator's three stops need the scheduler's knowledge of what
// blocked tasks wait on. On the native backend Time is wall-clock
// nanoseconds since Run started, every cycle-denominated field
// (Deadline, CycleLimit) carries the nanosecond quantity the run was
// configured with, and the fields only the simulator can know —
// per-processor Clocks and the blocked-task wait-for graph — stay zero.
func (rt *Runtime) wrapRunError(err error) error {
	switch f := err.(type) {
	case *sim.DeadlockError:
		de := &DeadlockError{Time: f.Time}
		for _, t := range f.Tasks {
			de.Waits = append(de.Waits, waitEdge(t))
		}
		return de
	case *sim.DeadlineError:
		de := &DeadlineExceededError{
			Deadline:     f.Deadline,
			Time:         f.Time,
			LiveTasks:    f.Live,
			BlockedTasks: len(f.Blocked),
			Clocks:       f.Clocks,
			QueueDepths:  rt.sched.QueueDepths(),
		}
		for _, t := range f.Blocked {
			de.Waits = append(de.Waits, waitEdge(t))
		}
		return de
	case *sim.WatchdogError:
		return &NoProgressError{
			CycleLimit:   f.Limit,
			Time:         f.Time,
			LiveTasks:    f.Live,
			BlockedTasks: f.Blocked,
			Clocks:       f.Clocks,
			Snapshot:     f.Snapshot,
		}
	}
	return err
}

// waitEdge derives the wait-for edge for one blocked task from the
// BlockedOn marker its descriptor recorded before parking.
func waitEdge(t *sim.Task) WaitEdge {
	w := WaitEdge{Task: t.Name, On: "unknown"}
	td, ok := t.Data.(*core.TaskDesc)
	if !ok {
		return w
	}
	switch on := td.BlockedOn.(type) {
	case *core.Monitor:
		w.On = "monitor"
		w.Object = on.Addr
		if o := on.Owner(); o != nil && o.T != nil {
			w.Holder = o.T.Name
		}
	case *core.Cond:
		w.On = "condition"
	case *core.Scope:
		w.On = "scope"
		w.Pending = on.Pending()
	}
	return w
}
