// Package native executes COOL programs on real goroutines: one worker
// goroutine per simulated processor, each owning the paper's queue
// structure (a plain/object queue plus a hashed array of task-affinity
// queues with a non-empty list), with whole-set stealing, reluctant
// object-affinity stealing, and optional cluster-restricted stealing.
//
// The scheduling decisions — Table 1, the slot hash, victim rings, the
// reluctant-steal gate, failover and retry targets — are the simulator
// scheduler's, called from internal/core (policy.go); this package owns
// the queues, locks and atomics around them. Time is wall-clock
// nanoseconds and synchronization is real (sync.Mutex monitors, channel
// parking). A single native worker applies the identical dispatch
// priority as the simulator's server — current task-affinity queue back
// to back, then the non-empty list, then the plain queue — so a P=1
// native run executes tasks in exactly the simulated order, which the
// differential harness in internal/xcheck exploits.
package native

import (
	"fmt"
	"math/bits"
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

	// TraceCapacity, when positive, bounds the merged scheduler event
	// trace (timestamps are wall-clock nanoseconds since Run).
	TraceCapacity int

	// Faults, when non-nil, is the fault plan to inject, with event
	// times and durations read as wall-clock nanoseconds since Run
	// started. The plan must already be validated (Plan.Validate) by
	// the embedding runtime. MemDegrade events are ignored — there is
	// no memory system to degrade natively.
	Faults *fault.Plan

	// Retry enables transient-failure recovery, with backoffs read as
	// wall-clock nanoseconds. The zero value (MaxAttempts 0) disables
	// it: the first aborted launch stops the run with *fault.TaskAbort.
	Retry fault.RetryPolicy

	// DeadlineNS, when positive, stops runs still live past this many
	// wall-clock nanoseconds with a *fault.DeadlineExceeded.
	DeadlineNS int64

	// NoProgressNS, when positive, arms the watchdog: a run in which no
	// task completes for this long while work is outstanding stops with
	// a *fault.NoProgress instead of hanging — the native analogue of
	// the simulator's cycle-limit watchdog, guarding chaos campaigns
	// against scheduler-level hangs (a lost task would otherwise park
	// every worker forever).
	NoProgressNS int64

	// MaxProcs, when above Procs, makes the pool elastic: worker slots
	// up to this capacity are built at New as dead spares that
	// AddWorkers can bring up mid-run (and Drain can retire again).
	// Zero means a fixed pool of Procs workers.
	MaxProcs int

	// Shed, when non-nil, arms the SLO layer: per-spawn deadlines are
	// enforced at dispatch and lowest-priority work is shed first under
	// backlog pressure (see ShedPolicy).
	Shed *ShedPolicy
}

// task is one spawned task record. Records are recycled through the
// executing worker's freelist: a completed task is zeroed and reused by
// a later spawn on that worker.
type task struct {
	name    string
	fn      func(*Ctx) // nil for payload tasks, run through Config.Invoke
	payload any
	idx     int32 // SpawnN member index, -1 for single spawns
	class   core.Class
	server  int
	slot    int   // task-affinity queue index, -1 for the plain queue
	affObj  int64 // address identifying the task-affinity set (0 if none)
	scope   *scope
	mon     *Monitor // mutex-function monitor, locked around fn

	// Fault-injection state (zero when no plan is armed): the per-name
	// spawn index assigned by the injector, whether the injector tracks
	// this name, a planted panic, and the count of aborted launch
	// attempts so far.
	spawnIdx int
	tracked  bool
	injPanic bool
	aborts   int

	// SLO fields (WithPriority/WithDeadline spawn options): the
	// priority class in [0,7] and the absolute wall-clock deadline in
	// nanoseconds since Run (0 = none). Read at dispatch when a
	// ShedPolicy is armed.
	prio       int8
	deadlineNS int64

	// ctx is the execution context handed to the task body, embedded in
	// the pooled record so running a task allocates nothing. It is valid
	// only while the task executes on its worker; its facade slot
	// survives freeTask (see Ctx.Facade).
	ctx Ctx

	// Intrusive links: next/prev/q while in a locked taskQueue, next
	// alone while riding a SpawnN chain or a worker freelist (a record
	// is in at most one of those states at a time).
	next, prev *task
	q          *taskQueue
}

// worker is one executor goroutine's scheduling state.
//
// The structures split by who may touch them: deq holds the plain tasks
// the worker's own goroutine spawned (owner pushes/pops lock-free,
// thieves CAS), and the mutex guards everything else — the
// task-affinity slots, the locked plain queue, and whole-set moves
// through the sharded set table. Any goroutine may insert under the
// mutex; only the owner pushes the deque. busyNS/idleNS, events, the
// freelist, and the scratch slices are owned by the worker's goroutine.
type worker struct {
	id       int
	mu       sync.Mutex
	slots    []taskQueue
	nonEmpty nonEmptyList
	cur      *taskQueue // slot being drained back to back
	pinned   taskQueue  // locked plain queue: pinned tasks, and plain ones other goroutines inserted (mu)
	queued   atomic.Int64

	deq chaseLev // the owner's own plain spawns

	// lockedWork counts the tasks in the mutex-guarded structures (slots
	// plus pinned); take probes the lock only when it is nonzero.
	// setQueued counts the queued task-affinity set members, so a thief
	// checks the sets-first steal phase without the victim's lock. Both
	// are written only under mu.
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

	// free is the worker's task-record freelist (linked through t.next),
	// touched only by the worker's own goroutine: records are recycled by
	// runTask and handed out by spawns issued from tasks running here;
	// whole lists move between workers through Runtime.spare.
	free  *task
	freeN int

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

	// Elastic-pool state. drainReq holds the wall-clock time a planned
	// drain was requested (0 = none); the worker's own goroutine
	// observes it at top-level dispatch points and retires. exited
	// reports the goroutine has fully stopped (flipped under poolMu),
	// making a dead slot safe to resurrect. rings is the owner-private
	// victim probe order with dead slots left out, rebuilt when the
	// membership epoch moves past ringEpoch (see victimRings).
	drainReq  atomic.Int64
	exited    atomic.Bool
	ringEpoch int64
	rings     core.Rings

	// fev is this worker's share of the fault plan (nil without one),
	// consumed by the worker's own goroutine at dispatch points.
	fev *workerFaults

	busyNS, idleNS int64
	events         []trace.Event
}

// Runtime is one native program execution.
type Runtime struct {
	cfg     Config
	pol     core.Policy
	topo    core.Topo // machine shape over the full capacity, for the shared decisions
	workers []*worker // sized to capacity (np); slots past Procs start as dead spares
	np      int       // pool capacity: MaxProcs when elastic, Procs otherwise

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

	// spare holds full worker freelists (chains of exactly freeListCap
	// zeroed records, as *task heads) on their way from a worker that
	// frees more records than it spawns to one that spawns more than it
	// frees (see freeTask).
	spare sync.Pool

	failMu sync.Mutex
	fail   error

	// Robustness state (see fault.go). stopc is closed by stop() to
	// unwind every worker when a deadline, watchdog, or exhausted retry
	// budget aborts the run; dead is the bitmask of retired workers,
	// published before a retiring worker drains its queues. armed is
	// true when any robustness feature (faults, retries, deadline,
	// watchdog) is active — the fault-free fast paths stay branchless
	// beyond one flag or atomic load.
	stopc     chan struct{}
	stopping  atomic.Bool
	stopOnce  sync.Once
	dead      atomic.Uint64
	armed     bool
	inj       *injector
	retry     fault.RetryPolicy
	retries   retryQueue
	completed atomic.Int64 // tasks run or shed to completion, counted only when armed (watchdog progress)
	tkScratch perfmon.Counters
	tkDone    sync.WaitGroup

	deadlineNS   int64
	noProgressNS int64

	// Elastic pool state (see elastic.go). poolMu guards the join
	// protocol counters, the joining flag, and the PoolEvents timeline;
	// epoch counts membership changes for the per-worker victim rings;
	// addTimes holds the due times of plan-injected AddWorker events
	// (consumed by the timekeeper, addIdx is its private cursor).
	elastic     bool
	poolMu      sync.Mutex
	poolStarted int
	poolExited  int
	joining     bool
	running     bool
	allExited   chan struct{}
	idleExit    chan struct{}
	idleOnce    sync.Once
	poolEvents  []PoolEvent
	epoch       atomic.Int64
	addTimes    []int64
	addIdx      int

	// SLO state (see shed.go). prioLive counts not-yet-completed tasks
	// per priority class so the floor controller can find the lowest
	// live class; maintained only when shed is armed.
	shed      *ShedPolicy
	shedFloor atomic.Int32
	prioLive  [maxPrio + 1]atomic.Int64

	start   time.Time
	elapsed atomic.Int64
	ran     bool
}

// New builds a native runtime. The configuration must carry a Home
// lookup and a perfmon monitor with one row per worker slot (the full
// MaxProcs capacity when the pool is elastic).
func New(cfg Config) (*Runtime, error) {
	if cfg.Procs <= 0 || cfg.Procs > 64 {
		return nil, fmt.Errorf("native: worker count %d out of range [1,64]", cfg.Procs)
	}
	np := cfg.Procs
	if cfg.MaxProcs > 0 {
		if cfg.MaxProcs < cfg.Procs || cfg.MaxProcs > 64 {
			return nil, fmt.Errorf("native: MaxProcs %d out of range [%d,64]", cfg.MaxProcs, cfg.Procs)
		}
		np = cfg.MaxProcs
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
		np:     np,
		shards: make([]setShard, numSetShards),
	}
	rt.elastic = cfg.MaxProcs > 0
	rt.retry = cfg.Retry
	rt.deadlineNS = cfg.DeadlineNS
	rt.noProgressNS = cfg.NoProgressNS
	if cfg.Shed != nil {
		sc := *cfg.Shed
		if sc.QueueHighWater <= 0 {
			sc.QueueHighWater = 64
		}
		rt.shed = &sc
	}
	// The shed floor rides the timekeeper, so arming it arms the monitor
	// goroutine too.
	rt.armed = cfg.Faults != nil || rt.retry.MaxAttempts > 0 || rt.deadlineNS > 0 || rt.noProgressNS > 0 || rt.shed != nil
	for i := range rt.shards {
		rt.shards[i].home = make(map[int64]int)
	}
	rt.workers = make([]*worker, np)
	for i := range rt.workers {
		w := &worker{id: i, slots: make([]taskQueue, pol.QueueArraySize), wake: make(chan struct{}, 1)}
		for j := range w.slots {
			w.slots[j].slotIdx = j
		}
		w.deq.init()
		w.exited.Store(true) // no goroutine yet; AddWorkers may claim the slot
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

// QueuedTasks returns the tasks currently enqueued machine-wide.
func (rt *Runtime) QueuedTasks() int { return int(rt.queuedTotal.Load()) }

// ParkedWorkers returns the workers currently idle-parked.
func (rt *Runtime) ParkedWorkers() int { return bits.OnesCount64(rt.parked.Load()) }

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
	root := rt.newTask(nil)
	root.name, root.fn = "main", main
	root.class, root.server, root.slot = core.ClassProcessor, 0, -1
	rt.live.Store(1)
	if rt.shed != nil {
		rt.prioLive[0].Add(1)
	}
	rt.insertAndWake(root, 0)
	if rt.armed {
		rt.tkDone.Add(1)
		go rt.timekeeper()
	}
	// Pool-join protocol: a WaitGroup cannot absorb AddWorkers racing
	// with the join (Add after Wait began), so worker goroutines are
	// counted under poolMu and Run waits for started == exited after
	// flipping joining (which refuses further growth).
	rt.poolMu.Lock()
	rt.running = true
	for i := 0; i < rt.cfg.Procs; i++ {
		rt.startWorkerLocked(rt.workers[i])
	}
	rt.poolMu.Unlock()
	select {
	case <-rt.done:
	case <-rt.stopc:
	case <-rt.idleExit:
	}
	rt.poolMu.Lock()
	rt.joining = true
	rt.running = false
	if rt.poolExited == rt.poolStarted {
		close(rt.allExited)
	}
	rt.poolMu.Unlock()
	<-rt.allExited
	rt.tkDone.Wait()
	rt.elapsed.Store(time.Since(rt.start).Nanoseconds())
	rt.failMu.Lock()
	defer rt.failMu.Unlock()
	if rt.fail != nil {
		return rt.fail
	}
	return nil
}

// TraceEvents returns the merged per-worker event buffers ordered by
// timestamp, bounded by Config.TraceCapacity. Call after Run.
func (rt *Runtime) TraceEvents() []trace.Event {
	var all []trace.Event
	for _, w := range rt.workers {
		all = append(all, w.events...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time < all[j].Time })
	if rt.cfg.TraceCapacity > 0 && len(all) > rt.cfg.TraceCapacity {
		all = all[:rt.cfg.TraceCapacity]
	}
	return all
}

// tracing reports whether the scheduler event trace is on.
func (rt *Runtime) tracing() bool { return rt.cfg.TraceCapacity > 0 }

// trace records one event into the worker's private buffer (merged and
// sorted by TraceEvents). Each worker writes only its own buffer, so
// recording needs no locking.
func (rt *Runtime) trace(w *worker, kind trace.Kind, proc int, name string, arg int64) {
	if !rt.tracing() || len(w.events) >= rt.cfg.TraceCapacity {
		return
	}
	w.events = append(w.events, trace.Event{Time: rt.nowNS(), Proc: int32(proc), Kind: kind, Task: name, Arg: arg})
}

// freeListCap bounds a worker's task-record freelist. A worker whose list
// is full hands the whole list to Runtime.spare, where a worker whose
// list ran dry picks it up.
const freeListCap = 256

// newTask returns a zeroed task record with the sentinel placement
// fields set. With a worker (its own goroutine — spawns and retries
// issued from a running task) the record comes from that worker's
// freelist without any synchronization, refilled with a whole list from
// rt.spare when empty; w == nil (the root task, tests) and an empty
// spare pool heap-allocate.
func (rt *Runtime) newTask(w *worker) *task {
	if w == nil {
		return &task{slot: -1, idx: -1}
	}
	if w.free == nil {
		if h, _ := rt.spare.Get().(*task); h != nil {
			w.free, w.freeN = h, freeListCap
		}
	}
	if t := w.free; t != nil {
		w.free = t.next
		w.freeN--
		t.next = nil
		t.slot, t.idx = -1, -1
		return t
	}
	return &task{slot: -1, idx: -1}
}

// freeTask recycles t onto w's freelist. Called only by the worker that
// just executed t (runTask), so the record has no other referent: a
// thief that once held it gave up ownership when it handed the task to
// dispatch. The facade slot survives (see Ctx.Facade).
//
// Records flow from the worker that spawns a task to the one that runs
// it, so a worker that runs more than it spawns (a thief, or the target
// of pinned spawns) fills its list while the spawner's runs dry. A full
// list therefore goes to rt.spare whole — one pool operation per
// freeListCap records — rather than its overflow to the collector.
func (rt *Runtime) freeTask(w *worker, t *task) {
	if w == nil {
		return
	}
	if w.freeN >= freeListCap {
		rt.spare.Put(w.free)
		w.free, w.freeN = nil, 0
	}
	*t = task{ctx: Ctx{facade: t.ctx.facade}}
	t.next = w.free
	w.free = t
	w.freeN++
}

func (rt *Runtime) recordFailure(err error) {
	rt.failMu.Lock()
	if rt.fail == nil {
		rt.fail = err
	}
	rt.failMu.Unlock()
}

// loop is one worker's scheduling loop: local queues, stealing, parking.
// Each iteration is a dispatch point: due fault events apply first (a
// Fail event retires the worker and exits the loop), and a stopped run
// exits before taking more work.
func (rt *Runtime) loop(w *worker) {
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
		if rt.elastic && rt.drainRequested(w) {
			return // planned retirement
		}
		if rt.armed {
			if rt.stopped() {
				return
			}
			if rt.checkFaults(w, true) {
				return // retired
			}
		}
		if t := rt.take(w); t != nil {
			if busyMark.IsZero() {
				busyMark = time.Now()
			}
			misses = 0
			rt.dispatch(w, t)
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

// dispatch runs one dequeued task, first consulting the transient-fault
// injections (flaky windows, planted launch failures) that may abort
// the launch and schedule a retry instead.
func (rt *Runtime) dispatch(w *worker, t *task) {
	if rt.shed != nil && rt.maybeShed(w, t) {
		return
	}
	if rt.armed && rt.launchAborted(w, t) {
		return
	}
	rt.runTask(w, t)
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
	c := &t.ctx
	var startNS int64
	if w.fev != nil {
		startNS = rt.nowNS()
	}
	rt.execute(c, t)
	if fv := w.fev; fv != nil {
		// An active slowdown window stretches the task's own duration
		// by its factor — the straggler sleeps off the difference.
		now := rt.nowNS()
		if d := fv.slowdownPenalty(startNS, now-startNS, now); d > 0 {
			rt.sleep(w, d)
		}
	}
	rt.trace(w, trace.KindDone, w.id, t.name, 0)
	if t.scope != nil {
		rt.scopeDone(t.scope)
	}
	if rt.shed != nil {
		rt.prioLive[t.prio].Add(-1)
	}
	rt.freeTask(w, t)
	if rt.armed {
		rt.completed.Add(1)
	}
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
		_, injected := r.(fault.InjectedPanic)
		rt.recordFailure(&fault.TaskFailure{
			Task:     t.name,
			Proc:     c.w.id,
			Time:     rt.nowNS(),
			Value:    r,
			Stack:    string(debug.Stack()),
			Injected: injected,
		})
	}()
	if t.injPanic {
		panic(fault.InjectedPanic{Task: t.name})
	}
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

// Facade returns the value last stored by SetFacade on this context, or
// nil. The context is embedded in a pooled task record and the slot
// survives the record's recycling, so an embedding runtime can build its
// own per-task context once per record and reuse it for every later task
// that runs in the record — without allocating per task and without two
// tasks nested on one worker ever sharing it.
func (c *Ctx) Facade() any { return c.facade }

// SetFacade stores the embedding runtime's per-task context (see Facade).
func (c *Ctx) SetFacade(v any) { c.facade = v }

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
func (c *Ctx) WaitFor(body func()) {
	sc := &scope{}
	old := c.scope
	c.scope = sc
	body()
	c.scope = old
	c.rt.waitScope(c, sc)
}
