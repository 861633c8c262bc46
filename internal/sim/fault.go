package sim

import (
	"math"
	"sort"

	"github.com/coolrts/cool/internal/fault"
)

// At schedules fn at simulated time t (clamped to now). Fault plans use
// it to pin fault events to simulated time before or during a run.
func (e *Engine) At(t int64, fn func()) { e.at(t, fn) }

// Snapshotter is the scheduler's view of a stopped run, embedded in the
// errors Run returns: its queue state and what each blocked task waits
// on.
type Snapshotter interface {
	QueueDepths() []int              // tasks queued per server, -1 for a dead one
	WaitEdge(t *Task) fault.WaitEdge // what a blocked task waits on
}

// SetSnapshot installs the scheduler's diagnostics. Without it the
// errors carry no queue state and every wait edge reads "unknown".
func (e *Engine) SetSnapshot(s Snapshotter) { e.snap = s }

// SetDeadline bounds the run to d simulated cycles: once an event past
// the deadline would fire with work outstanding, Run stops and returns a
// *fault.DeadlineExceeded. 0 disables the deadline.
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

// deadlineError builds the diagnostic returned when the run deadline is
// exceeded: the scheduler's queue depths and the wait-for edges of the
// blocked tasks.
func (e *Engine) deadlineError(at int64) *fault.DeadlineExceeded {
	d := &fault.DeadlineExceeded{
		Deadline:     e.deadline,
		Time:         at, // time of the first event past the deadline, not e.now (which lags it)
		LiveTasks:    e.liveTasks,
		BlockedTasks: len(e.blocked),
		Clocks:       e.clocks(),
		Waits:        e.waits(),
	}
	if e.snap != nil {
		d.QueueDepths = e.snap.QueueDepths()
	}
	return d
}

// deadlockError builds the typed error for tasks blocked forever.
func (e *Engine) deadlockError() *fault.Deadlock {
	return &fault.Deadlock{Time: e.now, Waits: e.waits()}
}

// clocks copies the per-processor clocks at a stop.
func (e *Engine) clocks() []int64 {
	c := make([]int64, len(e.Procs))
	for i, p := range e.Procs {
		c[i] = p.Clock
	}
	return c
}

// waits returns the wait-for edge of every blocked task, sorted by task
// name and, among same-named tasks, by creation, so repeated runs report
// the same order.
func (e *Engine) waits() []fault.WaitEdge {
	tasks := append([]*Task(nil), e.blocked...)
	sort.Slice(tasks, func(i, j int) bool {
		a, b := tasks[i], tasks[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.created < b.created
	})
	var out []fault.WaitEdge
	for _, t := range tasks {
		if e.snap != nil {
			out = append(out, e.snap.WaitEdge(t))
		} else {
			out = append(out, fault.WaitEdge{Task: t.Name, On: "unknown"})
		}
	}
	return out
}
