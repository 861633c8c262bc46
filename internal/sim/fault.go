package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/coolrts/cool/internal/fault"
)

// DeadlockError reports tasks blocked forever at the end of a run. The
// runtime layered above inspects Tasks (and the descriptors hung off
// their Data fields) to build a wait-for graph.
type DeadlockError struct {
	Time  int64
	Tasks []*Task // blocked tasks, sorted by name for determinism
}

func (e *DeadlockError) Error() string {
	names := make([]string, 0, len(e.Tasks))
	for _, t := range e.Tasks {
		names = append(names, t.Name)
	}
	if len(names) > 8 {
		names = append(names[:8], "...")
	}
	return fmt.Sprintf("sim: deadlock: %d task(s) blocked forever (%s)",
		len(e.Tasks), strings.Join(names, ", "))
}

// DeadlineError reports that simulated time passed the configured run
// deadline with work still outstanding. Unlike the watchdog it is an
// expected, policy-driven stop: the caller asked for a time budget.
type DeadlineError struct {
	Deadline int64
	Time     int64
	Live     int     // tasks not yet run to completion
	Blocked  []*Task // tasks parked on synchronization, sorted by name
	Clocks   []int64 // per-processor clocks at the stop
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("sim: deadline %d exceeded at t=%d with %d live task(s), %d blocked",
		e.Deadline, e.Time, e.Live, len(e.Blocked))
}

// At schedules fn at simulated time t (clamped to now). Fault plans use
// it to pin fault events to simulated time before or during a run.
func (e *Engine) At(t int64, fn func()) { e.at(t, fn) }

// SetCycleLimit arms the no-progress watchdog: once simulated time
// passes limit, Run stops and returns a *fault.NoProgress instead of
// continuing (or hanging). 0 disables the watchdog.
func (e *Engine) SetCycleLimit(limit int64) { e.limit = limit }

// SetSnapshot installs a diagnostic callback whose result is embedded in
// the watchdog error (the scheduler reports its queue state here).
func (e *Engine) SetSnapshot(fn func() string) { e.snapshot = fn }

// SetDeadline bounds the run to d simulated cycles: once an event past
// the deadline would fire with work outstanding, Run stops and returns a
// *DeadlineError. 0 disables the deadline.
func (e *Engine) SetDeadline(d int64) { e.deadline = d }

// SetFailHandler installs the callback invoked when a processor is
// retired by FailProc. running is the task that was executing there (nil
// if idle); the handler re-homes it and the processor's queued work.
func (e *Engine) SetFailHandler(fn func(p *Proc, running *Task, now int64)) {
	e.onFail = fn
}

// Failed reports whether the processor has been retired by FailProc.
func (p *Proc) Failed() bool { return p.failed }

// StalledCycles returns the cycles this processor lost to injected
// stalls.
func (p *Proc) StalledCycles() int64 { return p.stalled }

// SlowProc multiplies every cycle subsequently charged on p by factor,
// for duration cycles of p's clock (0 = rest of the run).
func (e *Engine) SlowProc(p *Proc, factor, duration int64) {
	if p.failed || factor <= 1 {
		return
	}
	p.speedFactor = factor
	if duration <= 0 {
		p.slowUntil = math.MaxInt64
	} else {
		start := p.Clock
		if start < e.now {
			start = e.now
		}
		p.slowUntil = start + duration
	}
}

// StallProc freezes p for the given number of cycles starting now: its
// clock jumps forward, so any task it holds (and any dispatch) resumes
// only after the stall has passed.
func (e *Engine) StallProc(p *Proc, cycles int64) {
	if p.failed || cycles <= 0 {
		return
	}
	if p.Clock < e.now {
		if p.parked {
			p.Idle += e.now - p.Clock
		}
		p.Clock = e.now
	}
	p.Clock += cycles
	p.stalled += cycles
}

// FailProc retires p permanently: it will never dispatch again. The
// task it was running (if any) is detached and handed, along with the
// processor itself, to the fail handler so the scheduler can
// redistribute queued work to survivors.
func (e *Engine) FailProc(p *Proc) {
	if p.failed {
		return
	}
	p.failed = true
	e.setParked(p, false)
	p.dispatchQ = false
	p.dispatchEpoch++ // cancel any pending dispatch event
	running := p.cur
	p.cur = nil // pending slice-resume events no-op via the p.cur guard
	if e.onFail != nil {
		e.onFail(p, running, e.now)
	}
}

// InjectTaskPanic arranges for the nth task created with the given name
// (0-based creation order) to panic when it first runs.
func (e *Engine) InjectTaskPanic(name string, nth int) {
	if e.panicAt == nil {
		e.panicAt = make(map[string]map[int]bool)
	}
	if e.spawnSeq == nil {
		e.spawnSeq = make(map[string]int)
	}
	set := e.panicAt[name]
	if set == nil {
		set = make(map[int]bool)
		e.panicAt[name] = set
	}
	set[nth] = true
}

// InjectTaskAbort arranges for one launch attempt of the nth task
// created with the given name to abort transiently before its body
// runs. Calling it again for the same (name, nth) aborts a further
// attempt of the same spawn.
func (e *Engine) InjectTaskAbort(name string, nth int) {
	if e.abortAt == nil {
		e.abortAt = make(map[string]map[int]int)
	}
	if e.spawnSeq == nil {
		e.spawnSeq = make(map[string]int)
	}
	set := e.abortAt[name]
	if set == nil {
		set = make(map[int]int)
		e.abortAt[name] = set
	}
	set[nth]++
	e.transient = true
}

// flakyWin is a half-open window [from, to) of a processor's clock
// during which every task launch attempted there aborts transiently.
type flakyWin struct{ from, to int64 }

// AddFlakyWindow makes every task launch on proc abort transiently
// while the processor's clock is in [from, to).
func (e *Engine) AddFlakyWindow(proc int, from, to int64) {
	p := e.Procs[proc]
	p.flaky = append(p.flaky, flakyWin{from, to})
	e.transient = true
}

// noteSpawn assigns a creation index to tasks whose name has a panic or
// abort injection registered, and substitutes the panic body where one
// is planted. Untracked names are skipped so fault-free spawns stay
// allocation- and bookkeeping-free.
func (e *Engine) noteSpawn(t *Task) {
	if e.panicAt[t.Name] == nil && e.abortAt[t.Name] == nil {
		return
	}
	idx := e.spawnSeq[t.Name]
	e.spawnSeq[t.Name] = idx + 1
	t.spawnIdx = idx
	if e.panicAt[t.Name][idx] {
		name := t.Name
		t.fn = func(*Ctx) { panic(fault.InjectedPanic{Task: name}) }
	}
}

// LaunchShouldAbort reports whether this launch attempt of t on p is
// struck by transient-fault injection, consuming one injected abort (or
// matching a flaky window on p) and counting the attempt on the task.
// Only fresh launches abort: a task whose coroutine has started — a
// blocked or sliced continuation being resumed — is never aborted,
// because a partially executed body cannot be re-run.
func (e *Engine) LaunchShouldAbort(t *Task, p *Proc) bool {
	if !e.transient || t.startedCoro {
		return false
	}
	for _, w := range p.flaky {
		if p.Clock >= w.from && p.Clock < w.to {
			t.aborts++
			return true
		}
	}
	if set := e.abortAt[t.Name]; set != nil && set[t.spawnIdx] > 0 {
		set[t.spawnIdx]--
		t.aborts++
		return true
	}
	return false
}

// Redispatch re-queues a dispatch for p at its current clock — used
// after an aborted launch so the processor immediately looks for other
// work instead of parking until the next wakeup.
func (e *Engine) Redispatch(p *Proc) { e.queueDispatch(p, p.Clock) }

// FailRun aborts the run with err (first failure wins). The scheduler
// uses it to surface a retry-budget exhaustion as the run's error.
func (e *Engine) FailRun(err error) {
	if e.failure == nil {
		e.failure = err
	}
}

// watchdogError builds the diagnostic returned when the cycle limit is
// exceeded.
func (e *Engine) watchdogError() *fault.NoProgress {
	w := &fault.NoProgress{
		CycleLimit:   e.limit,
		Time:         e.now,
		LiveTasks:    e.liveTasks,
		BlockedTasks: len(e.blocked),
		Clocks:       make([]int64, len(e.Procs)),
	}
	for i, p := range e.Procs {
		w.Clocks[i] = p.Clock
	}
	if e.snapshot != nil {
		w.Snapshot = e.snapshot()
	}
	return w
}

// deadlineError builds the diagnostic returned when the run deadline is
// exceeded, carrying the blocked-task set so the runtime above can
// derive wait-for edges exactly as it does for deadlocks.
func (e *Engine) deadlineError(at int64) *DeadlineError {
	d := &DeadlineError{
		Deadline: e.deadline,
		Time:     at, // time of the first event past the deadline, not e.now (which lags it)
		Live:     e.liveTasks,
		Blocked:  make([]*Task, 0, len(e.blocked)),
		Clocks:   make([]int64, len(e.Procs)),
	}
	for t := range e.blocked {
		d.Blocked = append(d.Blocked, t)
	}
	sort.Slice(d.Blocked, func(i, j int) bool { return d.Blocked[i].Name < d.Blocked[j].Name })
	for i, p := range e.Procs {
		d.Clocks[i] = p.Clock
	}
	return d
}

// deadlockError builds the typed error for tasks blocked forever.
func (e *Engine) deadlockError() *DeadlockError {
	tasks := make([]*Task, 0, len(e.blocked))
	for t := range e.blocked {
		tasks = append(tasks, t)
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].Name < tasks[j].Name })
	return &DeadlockError{Time: e.now, Tasks: tasks}
}
