package fault

import (
	"fmt"
	"strings"
)

// This file declares, once, what the engines report when a task panics
// or a stop ends the run: every error shape Run returns as-is through
// the public API.

// TaskFailure reports a task whose body panicked: public as
// cool.TaskPanicError.
type TaskFailure struct {
	Task  string // task label passed to Spawn ("main" for the root task)
	Proc  int    // processor the task was running on
	Time  int64  // simulated cycle of the panic (wall-clock nanoseconds since Run, natively)
	Value any    // the panic value
	Stack string // goroutine stack at the panic
}

func (e *TaskFailure) Error() string {
	return fmt.Sprintf("cool: task %q panicked on P%d at cycle %d: %v", e.Task, e.Proc, e.Time, e.Value)
}

// WaitEdge is one edge of a deadlock's wait-for graph: a blocked task
// and the synchronization object it waits on (public as cool.WaitEdge).
type WaitEdge struct {
	Task    string // blocked task's label
	On      string // "monitor", "condition", or "scope"
	Object  int64  // monitor's object address (0 when none)
	Holder  string // task holding the monitor ("" when none/unknown)
	Pending int    // outstanding tasks in the scope (scope edges only)
}

func (w WaitEdge) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "task %q waits on %s", w.Task, w.On)
	if w.On == "monitor" && w.Object != 0 {
		fmt.Fprintf(&b, "@%#x", w.Object)
	}
	if w.Holder != "" {
		fmt.Fprintf(&b, " held by %q", w.Holder)
	}
	if w.On == "scope" {
		fmt.Fprintf(&b, " (%d task(s) outstanding)", w.Pending)
	}
	return b.String()
}

// Deadlock reports tasks blocked forever at the end of a simulated run:
// public as cool.DeadlockError. Waits lists each blocked task with the
// monitor, condition variable, or waitfor scope it is parked on — the
// wait-for graph of the deadlock. The native backend has no deadlock
// detector; a run deadline bounds a native hang.
type Deadlock struct {
	Time  int64 // simulated cycle the run stopped
	Waits []WaitEdge
}

func (e *Deadlock) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cool: deadlock at cycle %d: %d task(s) blocked forever", e.Time, len(e.Waits))
	writeWaits(&b, e.Waits)
	return b.String()
}

// writeWaits appends one indented line per wait-for edge.
func writeWaits(b *strings.Builder, waits []WaitEdge) {
	for _, w := range waits {
		b.WriteString("\n  ")
		b.WriteString(w.String())
	}
}

// DeadlineExceeded reports that time passed the configured run deadline
// with work still outstanding: public as cool.DeadlineExceededError.
// Both engines build it; the native backend reads nanoseconds for
// cycles and leaves BlockedTasks, Clocks and the wait-for graph zero.
type DeadlineExceeded struct {
	Deadline     int64
	Time         int64      // simulated cycle the run stopped
	LiveTasks    int        // tasks not yet run to completion
	BlockedTasks int        // tasks parked on synchronization
	Clocks       []int64    // per-processor clocks at the stop
	QueueDepths  []int      // queued tasks per server (-1 = dead server)
	Waits        []WaitEdge // wait-for edges of the blocked tasks
}

func (e *DeadlineExceeded) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cool: deadline %d exceeded at t=%d with %d live task(s), %d blocked; queues=%v",
		e.Deadline, e.Time, e.LiveTasks, e.BlockedTasks, e.QueueDepths)
	writeWaits(&b, e.Waits)
	return b.String()
}
