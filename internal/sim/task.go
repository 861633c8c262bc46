package sim

import (
	"iter"
	"runtime/debug"

	"github.com/coolrts/cool/internal/fault"
)

type status int

const (
	statusSlice   status = iota // quantum exhausted, still runnable
	statusBlocked               // parked until Unblock
	statusDone                  // ran to completion
	statusFailed                // panicked
)

type killSentinelType struct{}

var killSentinel = killSentinelType{}

// Task is one schedulable unit of work: a coroutine with a name, a body,
// and an execution context. Data is free for the runtime layered above
// (the COOL scheduler stores its task descriptor there).
type Task struct {
	Name string
	Data any

	fn  func(*Ctx)
	ctx Ctx
	err error

	co          *coro // the coroutine running the body, from first resume to done/failed
	startedCoro bool
	done        bool
	created     int // engine-wide creation index: orders same-named tasks in a stop error
	blockedAt   int // 1 + index in Engine.blocked while blocked, else 0
}

// NewTask creates a task that becomes runnable no earlier than readyAt.
// The task does not run until a Dispatcher hands it to a processor.
func (e *Engine) NewTask(name string, readyAt int64, fn func(*Ctx)) *Task {
	t := &Task{}
	e.InitTask(t, name, readyAt, fn)
	return t
}

// InitTask is NewTask on caller-owned storage: it overwrites every field
// of *t, Data included, so a runtime can embed the Task in a pooled
// record and reuse it once the previous task in it has completed.
func (e *Engine) InitTask(t *Task, name string, readyAt int64, fn func(*Ctx)) {
	*t = Task{Name: name, fn: fn, created: e.tasksMade}
	e.tasksMade++
	t.ctx = Ctx{eng: e, task: t, readyAt: readyAt}
	e.liveTasks++
}

// Unblock marks a blocked task runnable at time `at`. The caller must make
// the task reachable from its Dispatcher and call NotifyWork (or
// NotifyProc) so an idle processor picks it up.
func (e *Engine) Unblock(t *Task, at int64) { e.unblock(t, at) }

// coro is a pooled coroutine: one iter.Pull goroutine that runs task
// bodies one after another. The engine hands it a task and calls next,
// which switches directly to the body; the body's yields, and the
// done/failed status that ends it, come back as next's result. Between
// tasks the coroutine sits on the engine's free list, parked in loop.
type coro struct {
	task  *Task
	yield func(status) bool
	next  func() (status, bool)
	stop  func() // ends the goroutine, unwinding a parked body; returns once it has exited
}

func newCoro() *coro {
	co := &coro{}
	co.next, co.stop = iter.Pull(co.loop)
	return co
}

// loop runs the task the engine assigned before each resume, reports how
// it ended, and parks until the next one. It returns only through stop.
func (co *coro) loop(yield func(status) bool) {
	co.yield = yield
	for {
		st, ok := co.run()
		if !ok || !yield(st) {
			return
		}
	}
}

// run executes the assigned task's body and reports completion or
// failure; ok is false when stop unwound the body instead.
func (co *coro) run() (st status, ok bool) {
	t := co.task
	defer func() {
		t.done = true
		r := recover()
		if _, killed := r.(killSentinelType); r == nil || killed {
			return
		}
		f := &fault.TaskFailure{Task: t.Name, Value: r, Stack: string(debug.Stack())}
		if p := t.ctx.proc; p != nil {
			f.Proc = p.ID
			f.Time = p.Clock
		}
		t.err = f
		st, ok = statusFailed, true
	}()
	t.fn(&t.ctx)
	return statusDone, true
}

// Ctx is the execution context handed to a running task. All simulated
// costs flow through Charge; Block parks the task until Unblock.
type Ctx struct {
	eng      *Engine
	task     *Task
	proc     *Proc
	readyAt  int64
	sliceEnd int64
}

// Engine returns the engine executing this task.
func (c *Ctx) Engine() *Engine { return c.eng }

// Task returns the task this context belongs to.
func (c *Ctx) Task() *Task { return c.task }

// Proc returns the processor currently executing the task.
func (c *Ctx) Proc() *Proc { return c.proc }

// Now returns the task's current local time (its processor's clock).
func (c *Ctx) Now() int64 { return c.proc.Clock }

// Charge advances the processor clock by cycles, yielding to the engine
// if the quantum is exhausted so other processors keep pace.
func (c *Ctx) Charge(cycles int64) {
	if cycles < 0 {
		panic("sim: negative charge")
	}
	if f := c.proc.speedFactor; f > 1 && c.proc.Clock < c.proc.slowUntil {
		cycles *= f
	}
	c.proc.Clock += cycles
	if c.proc.Clock >= c.sliceEnd {
		c.yield(statusSlice)
	}
}

// Block parks the task. The caller must first have registered the task
// somewhere an Unblock will find it (a wait list, a queue).
func (c *Ctx) Block() {
	c.yield(statusBlocked)
}

// SyncPoint yields to the engine if any event strictly earlier than this
// processor's clock is pending, so that simulated-time ordering is exact
// at synchronization operations (lock, unlock, signal, spawn). Without
// it, a task that ran ahead within its quantum could observe
// synchronization state from its own simulated future.
func (c *Ctx) SyncPoint() {
	if c.eng.hasEarlierEvent(c.proc.Clock) {
		c.yield(statusSlice)
	}
}

// yield switches back to the engine; it returns when the engine resumes
// the task, and unwinds the body if the engine stopped it instead.
func (c *Ctx) yield(st status) {
	if !c.task.co.yield(st) {
		panic(killSentinel)
	}
}
