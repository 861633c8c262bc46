package fault

import "fmt"

// This file declares, once, what both engines report when a fault (or a
// plain application panic) ends a task: the two error shapes Run returns
// as-is through the public API, the panic value a plan plants, and the
// retry policy that decides whether a transient abort is an error at
// all.

// TaskFailure reports a task whose body panicked (or had a panic planted
// by a fault plan): public as cool.TaskPanicError.
type TaskFailure struct {
	Task     string // task label passed to Spawn ("main" for the root task)
	Proc     int    // processor the task was running on
	Time     int64  // simulated cycle of the panic (wall-clock nanoseconds since Run, natively)
	Value    any    // the panic value
	Stack    string // goroutine stack at the panic
	Injected bool   // true when planted by a fault plan
}

func (e *TaskFailure) Error() string {
	kind := "panicked"
	if e.Injected {
		kind = "panicked (injected fault)"
	}
	return fmt.Sprintf("cool: task %q %s on P%d at cycle %d: %v", e.Task, kind, e.Proc, e.Time, e.Value)
}

// TaskAbort reports a transient launch failure the run could not absorb
// — no retry policy, or the task's attempt budget ran out: public as
// cool.TaskAbortError.
type TaskAbort struct {
	Task     string // task label passed to Spawn
	Proc     int    // processor whose launch attempt failed last
	Time     int64  // simulated cycle of the final abort (nanoseconds since Run, natively)
	Attempts int    // launch attempts that failed (including the first)
}

func (e *TaskAbort) Error() string {
	return fmt.Sprintf("cool: task %q failed transiently on P%d at cycle %d: retry budget exhausted after %d aborted attempt(s)",
		e.Task, e.Proc, e.Time, e.Attempts)
}

// InjectedPanic is the panic value used for plan-injected task panics.
type InjectedPanic struct{ Task string }

func (p InjectedPanic) String() string {
	return fmt.Sprintf("injected fault: task %q", p.Task)
}

// RetryPolicy governs recovery from transient task-launch failures: how
// many launch attempts a spawn gets and the exponential backoff between
// them (public as cool.RetryPolicy, whose comment gives the placement
// rules and why retries are safe). The facade fills the defaults; an
// engine handed the zero value has retries disabled.
type RetryPolicy struct {
	// MaxAttempts is the total number of launch attempts allowed per
	// spawn, including the first (0 = default 4).
	MaxAttempts int
	// Backoff is the delay in simulated cycles before the second
	// attempt; each further retry doubles it (0 = default 1000).
	Backoff int64
	// MaxBackoff caps the exponential backoff (0 = 64x Backoff).
	MaxBackoff int64
}

// Delay returns the backoff before the next attempt when attempts have
// already failed (attempts >= 1).
func (p RetryPolicy) Delay(attempts int) int64 {
	shift := attempts - 1
	if shift > 30 {
		shift = 30
	}
	d := p.Backoff << uint(shift)
	if d > p.MaxBackoff || d <= 0 {
		d = p.MaxBackoff
	}
	return d
}
