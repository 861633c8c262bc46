// Package native executes COOL programs on real goroutines: one worker
// goroutine per simulated processor, each owning the paper's queue
// structure (a plain/object queue plus a hashed array of task-affinity
// queues with a non-empty list), with whole-set stealing, reluctant
// object-affinity stealing, and optional cluster-restricted stealing.
//
// The scheduling decisions — Table 1, the slot hash, victim rings, the
// reluctant-steal gate — are the simulator scheduler's, called from
// internal/core (policy.go); this package owns the queues, locks and
// atomics around them. Time is wall-clock
// nanoseconds and synchronization is real (sync.Mutex monitors, channel
// parking). A single native worker applies the identical dispatch
// priority as the simulator's server — current task-affinity queue back
// to back, then the non-empty list, then the plain queue — so a P=1
// native run executes tasks in the simulated order. The differential
// harness in internal/xcheck sees that order only through the Verify
// tokens, which it compares in full at P=1; no check compares the
// dispatch order itself.
package native

import (
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/coolrts/cool/internal/core"
	"github.com/coolrts/cool/internal/fault"
	"github.com/coolrts/cool/internal/perfmon"
	"github.com/coolrts/cool/internal/trace"
)

// Config describes the native machine: worker count, cluster topology
// (which steers victim order, not memory), and the scheduling policy.
type Config struct {
	Procs       int
	ClusterSize int
	PageSize    int64 // for the two-modulo task-affinity slot hash
	Pol         core.Policy

	// Home maps an object address to its home worker (the address-space
	// lookup, supplied by the embedding runtime with any locking it
	// needs). Required.
	Home func(addr int64) int

	// Mon receives per-worker counters. Every worker writes only its own
	// row, so the shared monitor needs no locking. Required.
	Mon *perfmon.Monitor

	// Invoke runs a payload-carrying task (one spawned with SpawnPayload).
	// The embedding runtime supplies a single adapter here once instead of
	// wrapping every spawned function in a fresh closure — the payload
	// travels through the task record as an `any`, which for func values
	// is an allocation-free conversion. Required only if SpawnPayload is
	// used.
	Invoke func(*Ctx, any)

	// InvokeN runs one member of a SpawnN batch: the shared payload plus
	// the member's index. Required only if SpawnN is used.
	InvokeN func(*Ctx, any, int)

	// Facade, when non-nil, makes the embedding runtime's own per-task
	// context for a new task record, once: the record keeps it for every
	// task that runs in it (see Ctx.Facade).
	Facade func(*Ctx) any

	// TraceCapacity, when positive, bounds the merged scheduler event
	// trace (timestamps are wall-clock nanoseconds since Run).
	TraceCapacity int

	// DeadlineNS, when positive, stops runs still live past this many
	// wall-clock nanoseconds with a *fault.DeadlineExceeded.
	DeadlineNS int64
}

// task is one spawned task record. Records are recycled through the
// executing worker's freelist: a completed task is zeroed and reused by
// a later spawn on that worker.
type task struct {
	name    string
	fn      func(*Ctx) // nil for payload tasks, run through Config.Invoke
	payload any
	idx     int32 // SpawnN member index, -1 for single spawns
	server  int
	scope   *scope
	mon     *Monitor // mutex-function monitor, locked around fn

	// Link queues the record in its worker's locked queues and carries
	// its class, slot and set object.
	core.Link[task]

	// ctx is the execution context handed to the task body, embedded in
	// the pooled record so running a task allocates nothing. It is valid
	// only while the task executes on its worker; its facade slot
	// survives freeTask (see Ctx.Facade).
	ctx Ctx

	// chain links the record while it rides a SpawnN chain or a worker
	// freelist.
	chain *task
}

// worker is one executor goroutine's scheduling state.
//
// The structures split by who may touch them: deq holds the plain tasks
// the worker's own goroutine spawned (owner pushes/pops lock-free,
// thieves CAS), and the mutex guards everything else — the
// task-affinity slots and the locked plain queue (q), and whole-set
// moves through the sharded set table. Any goroutine may insert under
// the mutex; only the owner pushes the deque. busyNS/idleNS, events, the
// freelist, and the scratch slices are owned by the worker's goroutine.
type worker struct {
	id     int
	mu     sync.Mutex
	q      core.QueueArray[task] // its plain queue holds pinned tasks, and plain ones other goroutines inserted (mu)
	queued atomic.Int64

	deq chaseLev // the owner's own plain spawns

	// lockedWork counts the tasks in the mutex-guarded queues (q); take
	// probes the lock only when it is nonzero. setQueued counts the
	// queued task-affinity set members, so a thief checks the sets-first
	// steal phase without the victim's lock. Both are written only under
	// mu.
	lockedWork atomic.Int64
	setQueued  atomic.Int64

	// stealable counts the queued tasks any thief may take outright
	// (plain tasks and task-affinity set members — not processor-pinned
	// or object-bound tasks, which are stealable only from a backlogged
	// victim). A thief reads it lock-free to skip victims where a probe
	// is guaranteed to fail: queued == 1 and stealable == 0 means the one
	// task is pinned or object-bound, which no steal rule takes from a
	// non-backlogged victim.
	stealable atomic.Int64

	// setScratch batches the members of a set being moved by stealSet,
	// reused across steals to keep the move allocation-free.
	setScratch []*task

	// scopes holds drained WaitFor scopes for the worker's next WaitFor
	// (as many as its WaitFors ever nested).
	scopes []*scope

	// free is the worker's task-record freelist, touched only by the
	// worker's own goroutine: records are recycled by runTask and handed
	// out by spawns issued from tasks running here; whole lists move
	// between workers through Runtime.spare.
	free recList
	// made counts the records this worker heap-allocated since the last
	// Reset (see gatherRecords).
	made int

	// Reused scratch slices owned by the worker's goroutine: SpawnN
	// builds its batch here and chains the records bound for locked
	// queues per target (spawnHeads and spawnTails are lazily sized to
	// Procs on first mixed batch).
	spawnScratch []*task
	spawnHeads   []*task
	spawnTails   []*task
	spawnOrder   []int

	wake  chan struct{} // cap 1; parking/wakeup token
	timer *time.Timer   // reused across timed parks; nil until first use

	// rings is the owner-private victim probe order, built by New.
	rings core.Rings

	busyNS, idleNS int64
	events         []trace.Event
	dropped        int64 // events past TraceCapacity, not recorded
}

// Runtime is one native program execution.
type Runtime struct {
	cfg     Config
	pol     core.Policy
	topo    core.Topo // machine shape, for the shared decisions
	workers []*worker // one per Procs

	// shards is the task-affinity set table, split across numSetShards
	// locks so set placement and whole-set steals of unrelated sets
	// never serialize on each other. Together with the per-worker queue
	// mutexes this replaces the old global placement lock: an owner-local
	// push or pop takes exactly one lock (its own), a set placement takes
	// the home worker's lock plus one shard, and a steal takes the two
	// worker locks involved (in ascending id order) plus at most one
	// shard. "Sets never split" stays an invariant because every insert
	// of a set member revalidates the set's home under its shard lock,
	// and every whole-set move re-homes the set under that same lock
	// while holding the victim's queue lock.
	shards []setShard

	rr          atomic.Int64 // round-robin cursor (Base mode, set spread)
	queuedTotal atomic.Int64
	parked      atomic.Uint64 // bitmask of parked workers
	live        atomic.Int64  // tasks spawned but not yet completed
	done        chan struct{} // closed when live drains to zero
	doneOnce    sync.Once

	clusterOnly atomic.Bool // dynamic cluster-stealing flag
	setSplits   atomic.Int64

	// spare holds worker freelists on their way from a worker that frees
	// more records than it spawns to one that spawns more than it frees
	// (see freeTask), and, between runs, every worker's list (see
	// gatherRecords): at most maxSpareLists of them, under spareMu, so a
	// list one worker puts is the next list any worker takes.
	spareMu sync.Mutex
	spare   []recList

	failMu sync.Mutex
	fail   error

	// wg joins the worker goroutines at the end of Run.
	wg sync.WaitGroup

	// The run deadline (Config.DeadlineNS, see deadline.go): stopc is
	// closed by stop() to unwind every worker when the deadline passes
	// with work still live; watchDone joins the goroutine that watches
	// it.
	stopc     chan struct{}
	stopping  atomic.Bool
	watchDone sync.WaitGroup

	start   time.Time
	elapsed atomic.Int64
	ran     bool
}

// New builds a native runtime. The configuration must carry a Home
// lookup and a perfmon monitor with one row per worker.
func New(cfg Config) (*Runtime, error) {
	np := cfg.Procs
	if np <= 0 || np > 64 {
		return nil, fmt.Errorf("native: worker count %d out of range [1,64]", np)
	}
	if cfg.ClusterSize <= 0 {
		return nil, fmt.Errorf("native: ClusterSize must be positive")
	}
	if cfg.PageSize <= 0 {
		return nil, fmt.Errorf("native: PageSize must be positive")
	}
	if cfg.Home == nil || cfg.Mon == nil || len(cfg.Mon.Per) < np {
		return nil, fmt.Errorf("native: Home lookup and a %d-row perfmon monitor are required", np)
	}
	pol := cfg.Pol
	if pol.QueueArraySize <= 0 {
		pol.QueueArraySize = 64
	}
	rt := &Runtime{
		cfg:    cfg,
		pol:    pol,
		topo:   core.Topo{Procs: np, ClusterSize: cfg.ClusterSize, PageSize: cfg.PageSize, QueueArraySize: pol.QueueArraySize},
		shards: make([]setShard, numSetShards),
	}
	for i := range rt.shards {
		rt.shards[i].home = make(map[int64]int)
	}
	rt.workers = make([]*worker, np)
	for i := range rt.workers {
		w := &worker{id: i, wake: make(chan struct{}, 1)}
		w.q.Init(pol.QueueArraySize)
		w.deq.init()
		w.rings.Build(rt.topo, i, 0)
		rt.workers[i] = w
	}
	rt.rearm()
	return rt, nil
}

// nowNS returns nanoseconds since Run started.
func (rt *Runtime) nowNS() int64 { return time.Since(rt.start).Nanoseconds() }

// ElapsedNanos returns the wall-clock duration of Run.
func (rt *Runtime) ElapsedNanos() int64 { return rt.elapsed.Load() }

// BusyIdleNanos returns the summed per-worker busy (running tasks) and
// idle (parked) nanoseconds. Call after Run.
func (rt *Runtime) BusyIdleNanos() (busy, idle int64) {
	for _, w := range rt.workers {
		busy += w.busyNS
		idle += w.idleNS
	}
	return busy, idle
}

// SetSplits returns how often a task-affinity set was observed split
// across workers (an invariant violation; must be zero under the default
// whole-set stealing policy).
func (rt *Runtime) SetSplits() int64 { return rt.setSplits.Load() }

// SetClusterStealingOnly flips the cluster-stealing restriction at run
// time (the paper's dynamically manipulated runtime flag, §6.3).
func (rt *Runtime) SetClusterStealingOnly(on bool) { rt.clusterOnly.Store(on) }

// Run executes main as the root task on worker 0 and returns after every
// task has completed. A panicking task aborts with *fault.TaskFailure
// (the remaining tasks still drain).
func (rt *Runtime) Run(main func(*Ctx)) error {
	if rt.ran {
		return fmt.Errorf("native: Run called twice")
	}
	rt.ran = true
	rt.start = time.Now()
	// No worker runs yet, so worker 0's freelist is Run's to take from.
	root := rt.newTask(rt.workers[0])
	root.name, root.fn = "main", main
	root.Class, root.server, root.Slot = core.ClassProcessor, 0, -1
	rt.live.Store(1)
	rt.insertAndWake(root, 0)
	if rt.cfg.DeadlineNS > 0 {
		rt.watchDone.Add(1)
		go rt.watchDeadline()
	}
	rt.wg.Add(len(rt.workers))
	for _, w := range rt.workers {
		go rt.loop(w)
	}
	select {
	case <-rt.done:
	case <-rt.stopc:
	}
	// Every worker's last act is wg.Done, so once Wait returns no worker
	// touches the runtime again and Reset may re-arm it with plain stores.
	rt.wg.Wait()
	rt.watchDone.Wait()
	rt.elapsed.Store(time.Since(rt.start).Nanoseconds())
	rt.failMu.Lock()
	defer rt.failMu.Unlock()
	if rt.fail != nil {
		return rt.fail
	}
	return nil
}

// TraceEvents returns the merged per-worker event buffers ordered by
// timestamp, bounded by Config.TraceCapacity, and how many events were
// dropped: past a worker's capacity when recorded, or past the merged
// bound here. Call after Run.
func (rt *Runtime) TraceEvents() ([]trace.Event, int64) {
	var all []trace.Event
	var dropped int64
	for _, w := range rt.workers {
		all = append(all, w.events...)
		dropped += w.dropped
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time < all[j].Time })
	if rt.cfg.TraceCapacity > 0 && len(all) > rt.cfg.TraceCapacity {
		dropped += int64(len(all) - rt.cfg.TraceCapacity)
		all = all[:rt.cfg.TraceCapacity]
	}
	return all, dropped
}

// tracing reports whether the scheduler event trace is on.
func (rt *Runtime) tracing() bool { return rt.cfg.TraceCapacity > 0 }

// trace records one event into the worker's private buffer (merged and
// sorted by TraceEvents), counting it as dropped past capacity. Each
// worker writes only its own buffer and count, so recording needs no
// locking.
func (rt *Runtime) trace(w *worker, kind trace.Kind, proc int, name string, arg int64) {
	if !rt.tracing() {
		return
	}
	if len(w.events) >= rt.cfg.TraceCapacity {
		w.dropped++
		return
	}
	w.events = append(w.events, trace.Event{Time: rt.nowNS(), Proc: int32(proc), Kind: kind, Task: name, Arg: arg})
}

// freeListCap bounds a worker's task-record freelist. A worker whose list
// is full hands the whole list to Runtime.spare, where a worker whose
// list ran dry picks it up. The bound is small because a list below it
// is the worker's alone: records that another worker's spawns need sit
// there, and those spawns allocate, until the list fills. At 256, warm
// P=2 jobs kept allocating a few dozen records each, job after job.
const freeListCap = 32

// maxSpareLists bounds Runtime.spare (4096 records): a list that finds it
// full goes to the collector.
const maxSpareLists = 128

// recList is a freelist of zeroed task records chained through
// task.chain: n of them from head to tail.
type recList struct {
	head, tail *task
	n          int
}

// push adds t at the head of l.
func (l *recList) push(t *task) {
	if l.head == nil {
		l.tail = t
	}
	t.chain = l.head
	l.head = t
	l.n++
}

// pop takes the head record of l, or returns nil.
func (l *recList) pop() *task {
	t := l.head
	if t != nil {
		l.head = t.chain
		l.n--
		t.chain = nil
	}
	return t
}

// appendList moves every record of m to the end of l.
func (l *recList) appendList(m recList) {
	if m.head == nil {
		return
	}
	if l.head == nil {
		*l = m
		return
	}
	l.tail.chain = m.head
	l.tail = m.tail
	l.n += m.n
}

// newTask returns a zeroed task record with the sentinel placement
// fields set. With a worker (its own goroutine — spawns issued from a
// running task) the record comes from that worker's freelist without
// any synchronization, refilled with a whole list from rt.spare when
// empty; w == nil (tests) and an empty spare heap-allocate. Run takes
// the root task's record from worker 0's list before any worker
// goroutine starts.
func (rt *Runtime) newTask(w *worker) *task {
	if w == nil {
		return rt.newRecord()
	}
	if w.free.head == nil {
		w.free = rt.takeSpare()
	}
	if t := w.free.pop(); t != nil {
		t.Slot, t.idx = -1, -1
		return t
	}
	w.made++
	return rt.newRecord()
}

// takeSpare pops a freelist off rt.spare, or returns an empty one.
func (rt *Runtime) takeSpare() recList {
	rt.spareMu.Lock()
	defer rt.spareMu.Unlock()
	n := len(rt.spare)
	if n == 0 {
		return recList{}
	}
	l := rt.spare[n-1]
	rt.spare[n-1] = recList{}
	rt.spare = rt.spare[:n-1]
	return l
}

// putSpare pushes l onto rt.spare, or leaves it to the collector when
// maxSpareLists wait already.
func (rt *Runtime) putSpare(l recList) {
	rt.spareMu.Lock()
	if len(rt.spare) < maxSpareLists {
		rt.spare = append(rt.spare, l)
	}
	rt.spareMu.Unlock()
}

// newRecord heap-allocates a task record (see initRecord).
func (rt *Runtime) newRecord() *task { return rt.initRecord(new(task)) }

// initRecord readies a zeroed record: the sentinel placement fields set,
// its link bound to it and its facade made.
func (rt *Runtime) initRecord(t *task) *task {
	t.Item, t.Slot, t.idx = t, -1, -1
	if rt.cfg.Facade != nil {
		t.ctx.facade = rt.cfg.Facade(&t.ctx)
	}
	return t
}

// freeTask recycles t onto w's freelist. Called only by the worker that
// just executed t (runTask), so the record has no other referent: a
// thief that once held it gave up ownership when it handed the task to
// dispatch. The facade slot survives (see Ctx.Facade).
//
// Records flow from the worker that spawns a task to the one that runs
// it, so a worker that runs more than it spawns (a thief, or the target
// of pinned spawns) fills its list while the spawner's runs dry. A full
// list therefore goes to rt.spare whole — one locked push per
// freeListCap records — rather than its overflow to the collector.
func (rt *Runtime) freeTask(w *worker, t *task) {
	if w == nil {
		return
	}
	if w.free.n >= freeListCap {
		rt.putSpare(w.free)
		w.free = recList{}
	}
	*t = task{ctx: Ctx{facade: t.ctx.facade}}
	t.Item = t
	w.free.push(t)
}

func (rt *Runtime) recordFailure(err error) {
	rt.failMu.Lock()
	if rt.fail == nil {
		rt.fail = err
	}
	rt.failMu.Unlock()
}

// loop is one worker goroutine: local queues, stealing, parking, until
// the run drains or stops. A stopped run exits before taking more work.
func (rt *Runtime) loop(w *worker) {
	defer rt.wg.Done()
	misses := 0
	// Busy time is measured per dispatch burst — one clock read when the
	// worker turns busy and one when it runs dry — not per task: two
	// time.Now calls on every microsecond-scale task showed up as ~15%
	// of a scheduler-bound profile.
	var busyMark time.Time
	closeBurst := func() {
		if !busyMark.IsZero() {
			w.busyNS += time.Since(busyMark).Nanoseconds()
			busyMark = time.Time{}
		}
	}
	defer closeBurst()
	for {
		if rt.stopped() {
			return
		}
		if t := rt.take(w); t != nil {
			if busyMark.IsZero() {
				busyMark = time.Now()
			}
			misses = 0
			rt.runTask(w, t)
			continue
		}
		closeBurst()
		select {
		case <-rt.done:
			return
		default:
		}
		misses++
		rt.park(w, misses)
	}
}

// runTask executes one task to completion on w, with perfmon and trace
// accounting, monitor wrapping, panic recovery, and scope/termination
// bookkeeping.
func (rt *Runtime) runTask(w *worker, t *task) {
	ctr := &rt.cfg.Mon.Per[w.id]
	ctr.TasksRun++
	if t.server == w.id {
		ctr.TasksAtHome++
	}
	rt.trace(w, trace.KindRun, w.id, t.name, 0)
	t.ctx = Ctx{w: w, rt: rt, ctr: ctr, scope: t.scope, facade: t.ctx.facade}
	rt.execute(&t.ctx, t)
	rt.trace(w, trace.KindDone, w.id, t.name, 0)
	if t.scope != nil {
		rt.scopeDone(t.scope)
	}
	rt.freeTask(w, t)
	if rt.live.Add(-1) == 0 {
		rt.doneOnce.Do(func() { close(rt.done) })
	}
}

func (rt *Runtime) execute(c *Ctx, t *task) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(stopUnwind); ok {
			// A stopped run unwound this worker out of a blocked task
			// body; the stop already recorded the run's failure.
			return
		}
		rt.recordFailure(&fault.TaskFailure{
			Task:  t.name,
			Proc:  c.w.id,
			Time:  rt.nowNS(),
			Value: r,
			Stack: string(debug.Stack()),
		})
	}()
	if t.mon != nil {
		c.Lock(t.mon)
		c.heldMon = t.mon
		defer func() {
			// heldMon is cleared if a stopped run unwound out of a
			// Cond.Wait while the monitor was released — unlocking it
			// again would corrupt the mutex.
			if c.heldMon == t.mon {
				c.heldMon = nil
				c.Unlock(t.mon)
			}
		}()
	}
	if t.fn != nil {
		t.fn(c)
		return
	}
	if t.idx >= 0 {
		rt.cfg.InvokeN(c, t.payload, int(t.idx))
		return
	}
	rt.cfg.Invoke(c, t.payload)
}

// Ctx is the native execution context of one running task.
type Ctx struct {
	w     *worker
	rt    *Runtime
	ctr   *perfmon.Counters // the executing worker's perfmon row
	scope *scope

	// heldMon tracks the mutex-function monitor currently held by this
	// task, so a stop-unwind out of a Cond.Wait (which releases the
	// monitor) can tell execute's deferred unlock to stand down.
	heldMon *Monitor

	// facade is the embedding runtime's own per-task context, kept with
	// the pooled record across freeTask (see Facade).
	facade any
}

// Facade returns what Config.Facade made for this context's record, or
// nil. The context is embedded in a pooled task record and the slot
// survives the record's recycling, so an embedding runtime's per-task
// context is made once per record and reused for every later task that
// runs in the record — without allocating per task and without two
// tasks nested on one worker ever sharing it.
func (c *Ctx) Facade() any { return c.facade }

// ProcID returns the executing worker.
func (c *Ctx) ProcID() int { return c.w.id }

// Counters returns the executing worker's perfmon row. The task body
// runs on that worker's goroutine, so writing the row through it keeps
// the row's one writer.
func (c *Ctx) Counters() *perfmon.Counters { return c.ctr }

// Now returns wall-clock nanoseconds since Run started.
func (c *Ctx) Now() int64 { return c.rt.nowNS() }

// WaitFor runs body and then blocks until every task spawned in its
// dynamic extent has completed. The waiting worker helps: it executes
// other ready tasks (its own queues first, then stealing) and parks only
// when there is nothing to run, so a single worker can always drain the
// tasks its own waitfor is blocked on.
//
// The scope comes from the worker's scope list and goes back to it once
// drained: no task holds it then, and a scopeDone still between its last
// decrement and its waiter load can at most wake a later waiter on it
// spuriously, which waitScope tolerates. A WaitFor that unwinds leaves
// its scope to the collector.
func (c *Ctx) WaitFor(body func()) {
	w := c.w
	var sc *scope
	if n := len(w.scopes); n > 0 {
		sc = w.scopes[n-1]
		w.scopes = w.scopes[:n-1]
	} else {
		sc = new(scope)
	}
	old := c.scope
	c.scope = sc
	body()
	c.scope = old
	c.rt.waitScope(c, sc)
	w.scopes = append(w.scopes, sc)
}
