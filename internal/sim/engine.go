// Package sim implements a deterministic execution-driven simulation
// engine. Application code runs as coroutines, charging simulated cycles
// to per-processor clocks: a single engine loop switches directly into one
// task body at a time (iter.Pull, no channel and no trip through the Go
// scheduler) and gets control back when the body yields. The coroutines
// are pooled, so a run creates as many as it has tasks in flight at once,
// not one per task. The engine interleaves processors in virtual-time
// order at a configurable quantum, so a run is fully reproducible.
//
// The engine knows nothing about scheduling policy: when a processor is
// idle it asks a Dispatcher for the next task. The COOL runtime supplies
// the Dispatcher and implements the paper's queue structures on top.
package sim

import (
	"fmt"
	"math/bits"
)

// Dispatcher supplies tasks to idle processors. Dispatch may charge
// scheduling costs by advancing p.Clock; it returns nil when no work is
// available, in which case the processor parks until NotifyWork is called.
type Dispatcher interface {
	Dispatch(p *Proc) *Task
}

// Proc is one simulated processor. Clock is its local cycle counter.
type Proc struct {
	ID    int
	Clock int64

	// Accounting.
	Busy  int64 // cycles spent running tasks
	Idle  int64 // cycles spent parked with no work
	Tasks int64 // tasks executed to completion on this processor

	eng           *Engine
	cur           *Task
	parked        bool
	idleSince     int64
	dispatchQ     bool  // a dispatch event is pending
	dispatchAt    int64 // time of the pending dispatch event
	dispatchEpoch uint64

	// Fault-injection state (see fault.go).
	failed      bool  // retired by FailProc; never dispatches again
	speedFactor int64 // >1 while degraded: every charge is multiplied
	slowUntil   int64 // clock at which the slowdown lapses
	stalled     int64 // cycles lost to injected stalls
}

// Engine drives the simulation.
type Engine struct {
	Procs []*Proc

	quantum   int64
	events    eventHeap
	idleWords []uint64 // bitmask of parked processors, one bit per ID
	seq       uint64
	now       int64
	disp      Dispatcher

	liveTasks int
	tasksMade int     // tasks initialized so far, for Task.created
	blocked   []*Task // blocked tasks, in no order; Task.blockedAt indexes it
	coros     []*coro // every coroutine created, for leak-free teardown
	coroFree  []*coro // those with no task, parked between bodies
	started   bool
	failure   error

	// Fault-injection state (see fault.go).
	deadline int64       // run deadline in simulated cycles (0 = off)
	snap     Snapshotter // scheduler diagnostics for the stop errors
	onFail   func(p *Proc, running *Task, now int64)
}

// New creates an engine with n processors.
func New(n int, quantum int64) *Engine {
	if n <= 0 {
		panic("sim: engine needs at least one processor")
	}
	if quantum <= 0 {
		panic("sim: quantum must be positive")
	}
	e := &Engine{quantum: quantum}
	e.Procs = make([]*Proc, n)
	for i := range e.Procs {
		e.Procs[i] = new(Proc)
	}
	e.idleWords = make([]uint64, (n+63)/64)
	e.Reset()
	return e
}

// Reset re-arms the engine for another Run, in place: every processor
// parked at clock zero with no accounting, and no event, task or
// coroutine left. What configures the engine stays: the dispatcher, the
// snapshotter, the fail handler and the deadline. New ends with it, so
// a reset engine is a new one. The coroutines a run created are stopped
// when it ends, so Reset only forgets them.
func (e *Engine) Reset() {
	for i, p := range e.Procs {
		*p = Proc{ID: i, eng: e}
	}
	clear(e.idleWords)
	for _, p := range e.Procs {
		e.setParked(p, true)
	}
	clear(e.events)
	e.events = e.events[:0]
	clear(e.blocked)
	e.blocked = e.blocked[:0]
	clear(e.coros)
	e.coros = e.coros[:0]
	clear(e.coroFree)
	e.coroFree = e.coroFree[:0]
	e.seq, e.now = 0, 0
	e.liveTasks, e.tasksMade = 0, 0
	e.started, e.failure = false, nil
}

// setParked flips p's parked state, maintaining the idle bitmask that
// lets NotifyWork/NotifyIdle find parked processors without scanning
// every processor.
func (e *Engine) setParked(p *Proc, parked bool) {
	p.parked = parked
	w, b := p.ID>>6, uint(p.ID)&63
	if parked {
		e.idleWords[w] |= 1 << b
	} else {
		e.idleWords[w] &^= 1 << b
	}
}

// Parked reports whether the processor is idle-parked (set when a
// Dispatcher call found nothing, cleared when its next dispatch event
// runs). Schedulers use it to tell direct home-server notifies apart
// from policy wakes that reached other processors.
func (p *Proc) Parked() bool { return p.parked }

// SetDispatcher installs the scheduling policy. Must be called before Run.
func (e *Engine) SetDispatcher(d Dispatcher) { e.disp = d }

// Now returns the time of the event currently being processed.
func (e *Engine) Now() int64 { return e.now }

// MaxClock returns the largest processor clock, i.e. the parallel
// execution time of everything simulated so far.
func (e *Engine) MaxClock() int64 {
	var m int64
	for _, p := range e.Procs {
		if p.Clock > m {
			m = p.Clock
		}
	}
	return m
}

// hasEarlierEvent reports whether an event strictly before time t is
// pending.
func (e *Engine) hasEarlierEvent(t int64) bool {
	return len(e.events) > 0 && e.events[0].time < t
}

// schedule stamps ev with a clamped time and the next sequence number
// and queues it.
func (e *Engine) schedule(t int64, ev event) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev.time, ev.seq = t, e.seq
	e.events.push(ev)
}

// at schedules fn to run at simulated time t (clamped to now). External
// callers go through this closure form; engine-internal hot paths use
// the typed atDispatch/atSlice events below.
func (e *Engine) at(t int64, fn func()) {
	e.schedule(t, event{kind: evFunc, fn: fn})
}

// atDispatch schedules a dispatch wake for p; stale wakes are filtered
// by the epoch check when the event fires.
func (e *Engine) atDispatch(t int64, p *Proc, epoch uint64) {
	e.schedule(t, event{kind: evDispatch, p: p, epoch: epoch})
}

// atSlice schedules the quantum-slice requeue of task tk on p.
func (e *Engine) atSlice(t int64, p *Proc, tk *Task) {
	e.schedule(t, event{kind: evSlice, p: p, t: tk})
}

// NotifyWork wakes every parked processor: new work became available at
// time t. Each woken processor will call the Dispatcher. Parked
// processors are found through the idle bitmask (ascending ID order,
// matching a scan over Procs), so the cost scales with the number of
// idle processors rather than the machine size. Returns how many
// processors were actually notified, so callers can count real wakes
// rather than wake decisions.
func (e *Engine) NotifyWork(t int64) int {
	n := 0
	for w, word := range e.idleWords {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			e.queueDispatch(e.Procs[w<<6|b], t)
			n++
		}
	}
	return n
}

// NotifyIdle wakes at most k parked processors, lowest IDs first — the
// targeted alternative to NotifyWork for shallow backlogs, so a couple
// of queued tasks don't wake the whole machine to race for them.
// Returns how many processors were actually notified.
func (e *Engine) NotifyIdle(t int64, k int) int {
	n := 0
	for w, word := range e.idleWords {
		for word != 0 {
			if k <= 0 {
				return n
			}
			b := bits.TrailingZeros64(word)
			word &= word - 1
			e.queueDispatch(e.Procs[w<<6|b], t)
			k--
			n++
		}
	}
	return n
}

// NotifyProc wakes a single parked processor (used for targeted handoff).
func (e *Engine) NotifyProc(p *Proc, t int64) {
	if p.parked {
		e.queueDispatch(p, t)
	}
}

// queueDispatch arranges for p to call the Dispatcher at time t. An
// earlier request supersedes a pending later one (the stale event is
// skipped via the epoch check); a later request while an earlier one is
// pending is dropped.
func (e *Engine) queueDispatch(p *Proc, t int64) {
	if p.failed {
		return
	}
	if t < p.Clock {
		t = p.Clock
	}
	if p.dispatchQ && p.dispatchAt <= t {
		return
	}
	p.dispatchQ = true
	p.dispatchAt = t
	p.dispatchEpoch++
	e.atDispatch(t, p, p.dispatchEpoch)
}

// dispatch asks the Dispatcher for work for processor p.
func (e *Engine) dispatch(p *Proc) {
	p.dispatchQ = false
	if p.cur != nil || p.failed || e.failure != nil {
		return
	}
	if e.now > p.Clock {
		if p.parked {
			p.Idle += e.now - p.Clock
		}
		p.Clock = e.now
	}
	t := e.disp.Dispatch(p)
	if t == nil {
		if !p.parked {
			e.setParked(p, true)
			p.idleSince = p.Clock
		}
		return
	}
	wasParked := p.parked
	if wasParked {
		e.setParked(p, false)
	}
	e.runOn(p, t, wasParked)
}

// runOn starts or resumes task t on processor p. wasParked reports
// whether p was parked when it picked t up: only then is a wait until
// the task's ready time idle time — a busy processor that reaches a
// not-yet-ready task merely advances its clock (the gap was already
// accounted as Busy or steal overhead).
func (e *Engine) runOn(p *Proc, t *Task, wasParked bool) {
	if t.done {
		panic("sim: dispatching a completed task")
	}
	e.unmarkBlocked(t)
	p.cur = t
	t.ctx.proc = p
	if t.ctx.readyAt > p.Clock {
		if wasParked {
			p.Idle += t.ctx.readyAt - p.Clock
		}
		p.Clock = t.ctx.readyAt
	}
	t.ctx.sliceEnd = p.Clock + e.quantum
	e.resume(p, t)
}

// resume switches to the task's coroutine and processes its yield. A
// task gets a coroutine from the pool on its first resume and gives it
// back when its body ends.
func (e *Engine) resume(p *Proc, t *Task) {
	start := p.Clock
	if !t.startedCoro {
		t.startedCoro = true
		if n := len(e.coroFree); n > 0 {
			t.co = e.coroFree[n-1]
			e.coroFree = e.coroFree[:n-1]
		} else {
			t.co = newCoro()
			e.coros = append(e.coros, t.co)
		}
		t.co.task = t
	}
	st, _ := t.co.next()
	if st == statusDone || st == statusFailed {
		e.coroFree = append(e.coroFree, t.co)
		t.co.task, t.co = nil, nil
	}
	p.Busy += p.Clock - start
	switch st {
	case statusSlice:
		// Task exhausted its quantum; requeue the slice so other
		// processors with earlier clocks get to run first.
		e.atSlice(p.Clock, p, t)
	case statusBlocked:
		p.cur = nil
		e.markBlocked(t)
		e.queueDispatch(p, p.Clock)
	case statusDone:
		p.cur = nil
		p.Tasks++
		e.liveTasks--
		e.queueDispatch(p, p.Clock)
	case statusFailed:
		p.cur = nil
		e.liveTasks--
		if e.failure == nil {
			e.failure = t.err
		}
	}
}

// unblock makes a previously blocked task runnable again at time at. The
// caller (the runtime) is responsible for having re-enqueued the task so a
// Dispatcher call can find it, and for calling NotifyWork.
func (e *Engine) unblock(t *Task, at int64) {
	if t.ctx.readyAt < at {
		t.ctx.readyAt = at
	}
	e.unmarkBlocked(t)
}

// markBlocked adds t to the blocked tasks.
func (e *Engine) markBlocked(t *Task) {
	if t.blockedAt == 0 {
		e.blocked = append(e.blocked, t)
		t.blockedAt = len(e.blocked)
	}
}

// unmarkBlocked removes t from the blocked tasks, if it is there, by
// moving the last one into its place.
func (e *Engine) unmarkBlocked(t *Task) {
	i := t.blockedAt - 1
	if i < 0 {
		return
	}
	n := len(e.blocked) - 1
	last := e.blocked[n]
	e.blocked[i], last.blockedAt = last, i+1
	e.blocked[n] = nil
	e.blocked = e.blocked[:n]
	t.blockedAt = 0
}

// Run processes events until none remain. It returns an error if a task
// failed or if tasks remain blocked (deadlock).
func (e *Engine) Run() error {
	if e.disp == nil {
		panic("sim: Run without a Dispatcher")
	}
	if e.started {
		panic("sim: engine can only Run once")
	}
	e.started = true
	for len(e.events) > 0 && e.failure == nil {
		ev := e.events.pop()
		if e.deadline > 0 && ev.time > e.deadline && e.liveTasks > 0 {
			e.failure = e.deadlineError(ev.time)
			break
		}
		e.now = ev.time
		switch p, t := ev.p, ev.t; ev.kind {
		case evDispatch:
			if p.dispatchEpoch == ev.epoch {
				e.dispatch(p)
			}
		case evSlice:
			if p.cur == t {
				t.ctx.sliceEnd = p.Clock + e.quantum
				e.resume(p, t)
			}
		default:
			ev.fn()
		}
	}
	e.killRemaining()
	if e.failure != nil {
		return e.failure
	}
	if len(e.blocked) > 0 {
		return e.deadlockError()
	}
	if e.liveTasks > 0 {
		return fmt.Errorf("sim: %d task(s) never ran to completion", e.liveTasks)
	}
	return nil
}

// killRemaining stops every coroutine the engine created — idle in the
// pool, or parked inside a body that is blocked, queued, or detached from
// a failed processor — and waits for each to exit, so no goroutine
// outlives a run, however it ended.
func (e *Engine) killRemaining() {
	for _, co := range e.coros {
		co.stop()
	}
	for _, p := range e.Procs {
		p.cur = nil
	}
}
