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

	"github.com/coolrts/cool/internal/adapt"
	"github.com/coolrts/cool/internal/core"
	"github.com/coolrts/cool/internal/fault"
	"github.com/coolrts/cool/internal/perfmon"
	"github.com/coolrts/cool/internal/trace"
)

// wakeFanout is the number of parked workers a targeted wakeup notifies
// before the machine-wide backlog forces a broadcast (same constant as
// the simulator scheduler).
const wakeFanout = 4

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
	// wall-clock nanoseconds with a *DeadlineError.
	DeadlineNS int64

	// NoProgressNS, when positive, arms the watchdog: a run in which no
	// task completes for this long while work is outstanding stops with
	// a *NoProgressError instead of hanging.
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

	// Autoscale, when non-nil, runs the threshold autoscaler, growing
	// and draining the pool per control epoch (see AutoscalePolicy).
	// Requires MaxProcs.
	Autoscale *AutoscalePolicy

	// Adapt, when non-nil, arms the adaptive policy controller: each
	// Epoch nanoseconds the timekeeper feeds the counter mirror to the
	// pure controller and applies its decisions to the live policy
	// (cluster-only stealing, wake fanout, steal backoff, shed bias).
	// A non-positive Epoch defaults to one millisecond.
	Adapt *adapt.Policy
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
	// only while the task executes on its worker.
	ctx Ctx

	// Intrusive links: next/prev/q while in a locked taskQueue, next
	// alone while riding an inbox chain or a worker freelist (a record
	// is in at most one of those states at a time).
	next, prev *task
	q          *taskQueue
}

// worker is one executor goroutine's scheduling state.
//
// The structures split by who may touch them: deq holds the worker's
// plain tasks (owner pushes/pops lock-free, thieves CAS), inbox
// receives every cross-worker insert (and the owner's own
// pinned/object-bound self-inserts) lock-free, and the mutex guards
// only the structured queues — the task-affinity slots, the pinned
// queue, and whole-set moves through the sharded set table.
// busyNS/idleNS, events, the freelist, and the scratch slices are owned
// by the worker's goroutine.
type worker struct {
	id       int
	mu       sync.Mutex
	slots    []taskQueue
	nonEmpty nonEmptyList
	cur      *taskQueue // slot being drained back to back
	pinned   taskQueue  // ClassProcessor tasks (mu)
	queued   atomic.Int64

	deq   chaseLev // plain tasks
	inbox inbox    // cross-worker (and structured self) inserts

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
	// runTask and handed out by spawns issued from tasks running here.
	free  *task
	freeN int

	// Reused scratch slices owned by the worker's goroutine: inbox drains
	// reverse the swapped chain here, SpawnN builds its batch here and
	// chains structured cross-worker records per target (spawnHeads and
	// spawnTails are lazily sized to Procs on first mixed batch).
	inboxScratch []*task
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
	completed atomic.Int64 // tasks run to completion (watchdog progress)
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

	// Autoscaler (see elastic.go).
	auto     *AutoscalePolicy
	autoDone sync.WaitGroup

	// Adaptive controller (see adapt.go): mirror is the always-on
	// machine-wide atomic copy of the slow-path counters; adapt is the
	// per-run controller harness, nil unless Config.Adapt was set.
	mirror adaptCounters
	adapt  *adaptRT

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
		cfg:       cfg,
		pol:       pol,
		topo:      core.Topo{Procs: np, ClusterSize: cfg.ClusterSize, PageSize: cfg.PageSize, QueueArraySize: pol.QueueArraySize},
		np:        np,
		shards:    make([]setShard, numSetShards),
		done:      make(chan struct{}),
		stopc:     make(chan struct{}),
		allExited: make(chan struct{}),
		idleExit:  make(chan struct{}),
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
	if cfg.Autoscale != nil {
		if !rt.elastic {
			return nil, fmt.Errorf("native: Autoscale requires spare capacity (MaxProcs)")
		}
		a := *cfg.Autoscale
		if a.IntervalNS <= 0 {
			a.IntervalNS = int64(time.Millisecond)
		}
		if a.HighWater <= 0 {
			a.HighWater = 8
		}
		if a.LowWater <= 0 {
			a.LowWater = 1
		}
		if a.MinProcs <= 0 {
			a.MinProcs = cfg.Procs
		}
		if a.MaxProcs <= 0 || a.MaxProcs > np {
			a.MaxProcs = np
		}
		if a.Step <= 0 {
			a.Step = 1
		}
		if a.MinProcs > a.MaxProcs {
			return nil, fmt.Errorf("native: Autoscale MinProcs %d above MaxProcs %d", a.MinProcs, a.MaxProcs)
		}
		rt.auto = &a
	}
	// Policy default first: a warm-started adaptive controller
	// (initAdapt) overrides it from its Start vector.
	rt.clusterOnly.Store(pol.ClusterStealingOnly)
	if cfg.Adapt != nil {
		rt.initAdapt(*cfg.Adapt)
	}
	// The adaptive controller rides the timekeeper, so arming it arms
	// the monitor goroutine too.
	rt.armed = cfg.Faults != nil || rt.retry.MaxAttempts > 0 || rt.deadlineNS > 0 || rt.noProgressNS > 0 || rt.shed != nil || rt.adapt != nil
	for i := range rt.shards {
		rt.shards[i].home = make(map[int64]int)
	}
	rt.workers = make([]*worker, np)
	var spareMask uint64
	for i := range rt.workers {
		w := &worker{id: i, slots: make([]taskQueue, pol.QueueArraySize), wake: make(chan struct{}, 1)}
		for j := range w.slots {
			w.slots[j].slotIdx = j
		}
		w.deq.init()
		w.exited.Store(true) // no goroutine yet; AddWorkers may claim the slot
		w.ringEpoch = -1
		rt.workers[i] = w
		if i >= cfg.Procs {
			spareMask |= 1 << uint(i)
		}
	}
	// Spare slots are born dead: every insert path already reroutes
	// around dead workers, so the spares need no new special cases.
	rt.dead.Store(spareMask)
	if cfg.Faults != nil {
		rt.armFaults(cfg.Faults)
	}
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
	if rt.auto != nil {
		rt.autoDone.Add(1)
		go rt.autoscaler()
	}
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
	rt.autoDone.Wait()
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
	if rt.adapt != nil {
		all = append(all, rt.adapt.events...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Time < all[j].Time })
	if rt.cfg.TraceCapacity > 0 && len(all) > rt.cfg.TraceCapacity {
		all = all[:rt.cfg.TraceCapacity]
	}
	return all
}

// trace records one event into the worker's private buffer (merged and
// sorted by TraceEvents). Each worker writes only its own buffer, so
// recording needs no locking.
func (rt *Runtime) trace(w *worker, kind trace.Kind, proc int, name string, arg int64) {
	if rt.cfg.TraceCapacity <= 0 || len(w.events) >= rt.cfg.TraceCapacity {
		return
	}
	w.events = append(w.events, trace.Event{Time: rt.nowNS(), Proc: int32(proc), Kind: kind, Task: name, Arg: arg})
}

// freeListCap bounds a worker's task-record freelist; records past it go
// to the garbage collector.
const freeListCap = 256

// newTask returns a zeroed task record with the sentinel placement
// fields set. With a worker (its own goroutine — spawns and retries
// issued from a running task) the record comes from that worker's
// freelist without any synchronization; w == nil (the root task, tests)
// heap-allocates.
func (rt *Runtime) newTask(w *worker) *task {
	if w != nil && w.free != nil {
		t := w.free
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
// dispatch, and inbox chains never contain a running task.
func (rt *Runtime) freeTask(w *worker, t *task) {
	if w == nil || w.freeN >= freeListCap {
		return
	}
	*t = task{}
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

// parkRetryLimit is how many consecutive failed takes re-probe
// immediately while work is queued somewhere; past it the worker
// concludes the queued work is work it may not take (pinned heads,
// reluctantly-stolen object-bound tasks) and backs off exponentially
// instead of spinning on the victims' queue locks — spinning would
// slow the very workers running those tasks.
const (
	parkRetryLimit = 4
	backoffBase    = 20 * time.Microsecond
	backoffCap     = time.Millisecond
)

// stallBackoff returns the timed-park duration for the given
// consecutive-miss count: the first timed park (misses ==
// parkRetryLimit) waits backoffBase, each further miss doubles it, and
// the wait saturates at backoffCap. Short first waits keep the reaction
// time to freshly stealable work low; the exponential cap keeps a
// worker staring at genuinely untakeable work from burning the cores
// running it.
func stallBackoff(misses int) time.Duration {
	k := misses - parkRetryLimit
	switch {
	case k < 0:
		k = 0
	case k >= 6: // backoffBase<<6 already exceeds the cap
		return backoffCap
	}
	d := backoffBase << uint(k)
	if d > backoffCap {
		return backoffCap
	}
	return d
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

// park publishes the worker as idle, rechecks for work (closing the
// publish/recheck race against enqueuers), and sleeps until woken — or,
// when unstealable work is backlogged elsewhere, for an exponentially
// growing backoff.
func (rt *Runtime) park(w *worker, misses int) {
	// Drop any stale wake token first: a timed park that expired on its
	// own, or the early recheck return below, leaves a deposited token
	// behind, and that token would end the next genuine park instantly —
	// one spurious park/unpark round-trip. Draining here cannot lose a
	// wakeup, because every token sender publishes its condition (queue
	// count, scope count, fault-event index) before depositing, and the
	// rechecks after setParked observe those conditions afresh.
	select {
	case <-w.wake:
	default:
	}
	rt.setParked(w.id, true)
	defer rt.setParked(w.id, false)
	queued := rt.queuedTotal.Load() > 0
	if queued && misses < parkRetryLimit {
		return // work appeared between the failed take and publishing
	}
	start := time.Now()
	if queued {
		rt.timedPark(w, rt.stallBackoffRT(misses))
	} else {
		select {
		case <-w.wake:
		case <-rt.done:
		case <-rt.stopc:
		}
	}
	w.idleNS += time.Since(start).Nanoseconds()
}

// timedPark sleeps until a wake token, shutdown, or the deadline d,
// reusing the worker's timer — a fresh time.After channel per park
// would allocate on what is a hot path for stalled workers.
func (rt *Runtime) timedPark(w *worker, d time.Duration) {
	if w.timer == nil {
		w.timer = time.NewTimer(d)
	} else {
		w.timer.Reset(d)
	}
	fired := false
	select {
	case <-w.wake:
	case <-rt.done:
	case <-rt.stopc:
	case <-w.timer.C:
		fired = true
	}
	if !fired && !w.timer.Stop() {
		<-w.timer.C // the timer fired anyway; drain for the next Reset
	}
}

func (rt *Runtime) setParked(id int, on bool) {
	bit := uint64(1) << uint(id)
	for {
		old := rt.parked.Load()
		var next uint64
		if on {
			next = old | bit
		} else {
			next = old &^ bit
		}
		if rt.parked.CompareAndSwap(old, next) {
			return
		}
	}
}

// wakeWorker hands worker i a wake token if none is pending, reporting
// whether one was actually deposited.
func (rt *Runtime) wakeWorker(i int) bool {
	select {
	case rt.workers[i].wake <- struct{}{}:
		return true
	default:
		return false
	}
}

// wakeTargets notifies every worker in the bitmask whose parked bit is
// set — the direct "your queue just got work" notification (the analog
// of the simulator's NotifyProc), uncounted like the simulator's.
//
// A token is deposited only for parked workers, which cannot lose a
// wakeup: a parking worker publishes its bit before re-reading the
// queue count, and an enqueuer bumps the queue count before reading the
// mask (both sequentially consistent atomics) — so either the parker
// sees the new work and returns, or the enqueuer sees the bit.
func (rt *Runtime) wakeTargets(targets uint64) {
	m := targets & rt.parked.Load()
	for m != 0 {
		i := bits.TrailingZeros64(m)
		m &= m - 1
		rt.wakeWorker(i)
	}
}

// wakePolicy applies the two-level wake scheme after work was enqueued:
// while the machine-wide backlog is shallow only the first wakeFanout
// parked workers are woken (targeted), falling back to waking every
// parked worker once queues back up (broadcast). Counters are bumped
// once per call and only when at least one token was actually
// deposited — an empty parked mask or all-full token channels wake
// nobody and count nothing. Attribution is to the enqueueing worker's
// row (the simulator charges the target server; totals remain
// comparable, documented in DESIGN.md §9).
func (rt *Runtime) wakePolicy(ctr *perfmon.Counters) {
	if rt.pol.DisableStealing {
		return
	}
	mask := rt.parked.Load()
	if mask == 0 {
		return
	}
	fanout := rt.wakeFanoutNow()
	broadcast := rt.queuedTotal.Load() > int64(fanout)
	deposited, attempted := 0, 0
	for mask != 0 {
		if !broadcast && attempted >= fanout {
			break
		}
		i := bits.TrailingZeros64(mask)
		mask &= mask - 1
		attempted++
		if rt.wakeWorker(i) {
			deposited++
		}
	}
	if deposited == 0 {
		return
	}
	if broadcast {
		ctr.BroadcastWakes++
		rt.mirror.broadcastWakes.n.Add(1)
	} else {
		ctr.TargetedWakes++
		rt.mirror.targetedWakes.n.Add(1)
	}
}

// wakeAfterEnqueue notifies the target worker directly, then applies
// the machine-wide wake policy — the per-insert composition used by
// every single-task enqueue path (SpawnN batches call wakeTargets once
// over the whole target set and wakePolicy once per batch instead).
func (rt *Runtime) wakeAfterEnqueue(target, from int) {
	rt.wakeTargets(1 << uint(target))
	rt.wakePolicy(&rt.cfg.Mon.Per[from])
}

// placeTask fills t's placement fields: round-robin in Base mode, Table
// 1 (core.Topo.Place) otherwise. A task-affinity set member comes back
// with server -1; placeSet resolves its home and inserts it, under the
// set's shard.
func (rt *Runtime) placeTask(t *task, a core.Affinity, spawner int) {
	if rt.pol.IgnoreHints {
		t.class, t.server = core.ClassPlain, int(rt.rr.Add(1)-1)%rt.np
		return
	}
	t.class, t.server, t.slot, t.affObj = rt.topo.Place(a, spawner, rt.cfg.Home)
}

// lockWorker acquires w's queue mutex, counting a missed TryLock fast
// path against the acting worker's row (actor is the id of the worker
// whose goroutine is running — each row is still written only by its
// own goroutine).
func (rt *Runtime) lockWorker(w *worker, actor int) {
	rt.lockWorkerCtr(w, &rt.cfg.Mon.Per[actor])
}

// lockWorkerCtr is lockWorker with an explicit contention sink, for
// callers without a perfmon row of their own (the timekeeper goroutine
// charges its scratch counters to keep the one-writer-per-row rule).
func (rt *Runtime) lockWorkerCtr(w *worker, ctr *perfmon.Counters) {
	if w.mu.TryLock() {
		return
	}
	ctr.LockContention++
	rt.mirror.lockContention.n.Add(1)
	w.mu.Lock()
}

// placeSet places and inserts one task-affinity set member (class, slot
// and set object already filled by placeTask), returning the server it
// went to. The set's home is resolved under its shard
// lock; while that lock is held no whole-set steal can re-home the set,
// so if the home worker's lock can be grabbed without blocking
// (TryLock — which cannot deadlock even against the worker-before-shard
// global order, because it never waits) the insert completes in one
// shard acquisition. Otherwise the placement falls back to a retry
// loop that takes the locks in the global order (worker, then shard)
// and revalidates the home: if a concurrent whole-set steal re-homed
// the set in between, the placement chases the new home instead of
// splitting the set.
//
// Worker retirement adds one more reason to revalidate: a home may be
// dead (checked under the shard lock, and re-checked under the home
// worker's queue lock — the retire protocol publishes the dead bit
// before draining, so an insert that acquires the queue lock after the
// drain always sees it). A dead home is re-homed to a survivor under
// the shard lock, and every member chases the same record, so the set
// moves whole. The dead checks cost one atomic load when no worker has
// retired.
func (rt *Runtime) placeSet(t *task, ctr *perfmon.Counters) int {
	obj := t.affObj
	sh := rt.shardOf(obj)
	for {
		sh.lock(rt, ctr)
		sv, ok := sh.home[obj]
		if !ok {
			if rt.pol.PlaceSetsLeastLoaded {
				sv = rt.leastLoaded()
			} else {
				sv = int(rt.rr.Add(1)-1) % rt.np
			}
		}
		if rt.dead.Load() != 0 && rt.isDead(sv) {
			sv = rt.spreadAlive()
		}
		sh.home[obj] = sv
		if w := rt.workers[sv]; w.mu.TryLock() {
			if rt.dead.Load() == 0 || !rt.isDead(sv) {
				t.server = sv
				rt.pushLocked(w, t)
				w.mu.Unlock()
				sh.mu.Unlock()
				rt.queuedTotal.Add(1)
				return sv
			}
			// The home retired between the shard check and the queue
			// lock; re-home under the still-held shard lock and retry.
			w.mu.Unlock()
			sh.home[obj] = rt.spreadAlive()
			sh.mu.Unlock()
			continue
		}
		ctr.LockContention++
		rt.mirror.lockContention.n.Add(1)
		sh.mu.Unlock()
		for {
			w := rt.workers[sv]
			rt.lockWorkerCtr(w, ctr)
			sh.lock(rt, ctr)
			dead := rt.dead.Load() != 0 && rt.isDead(sv)
			if sh.home[obj] == sv && !dead {
				t.server = sv
				rt.pushLocked(w, t)
				sh.mu.Unlock()
				w.mu.Unlock()
				rt.queuedTotal.Add(1)
				return sv
			}
			// A concurrent whole-set steal moved the set, or the home
			// retired; chase the new (live) home.
			if dead && sh.home[obj] == sv {
				sh.home[obj] = rt.spreadAlive()
			}
			sv = sh.home[obj]
			sh.mu.Unlock()
			w.mu.Unlock()
		}
	}
}

// leastLoaded returns the surviving worker with the fewest queued tasks
// (ties to the lowest id). The per-worker counts are atomics, so the
// lock-free scan is a consistent-enough snapshot for a load-balancing
// heuristic.
func (rt *Runtime) leastLoaded() int {
	dead := rt.dead.Load()
	best, bestQ := 0, int64(1)<<62
	for i, w := range rt.workers {
		if dead&(1<<uint(i)) != 0 {
			continue
		}
		if q := w.queued.Load(); q < bestQ {
			best, bestQ = i, q
		}
	}
	return best
}

// pushLocked adds a structured task to w's locked queues with full
// accounting. Called with w.mu held; the caller accounts queuedTotal
// after releasing the lock. Only structured tasks reach it (sets through
// placeSet, pinned and object-bound records through SpawnN's per-target
// chains); plain tasks ride the deque and inbox instead.
func (rt *Runtime) pushLocked(w *worker, t *task) {
	rt.pushStructLocked(w, t)
	w.queued.Add(1)
	if t.class == core.ClassTaskSet {
		w.stealable.Add(1)
	}
}

// pushStructLocked routes one record into w's locked structures (w.mu
// held): a slot queue for set members and object-bound tasks, the pinned
// queue otherwise. It moves only the lock-guarded occupancy hints — an
// inbox-drained record was fully accounted (queued, stealable,
// queuedTotal) when it was inserted.
func (rt *Runtime) pushStructLocked(w *worker, t *task) {
	if t.slot >= 0 {
		q := &w.slots[t.slot]
		q.push(t)
		w.nonEmpty.add(q)
	} else {
		w.pinned.push(t)
	}
	w.lockedWork.Add(1)
	if t.class == core.ClassTaskSet {
		w.setQueued.Add(1)
	}
}

// drainInbox moves everything other workers pushed into w's inbox since
// the last drain into the structures dispatch reads: plain records onto
// the owner's deque, pinned and object-bound records under the lock.
// Owner only; the lock is taken at most once and only when a structured
// record arrived. Inserts already accounted every counter, so the drain
// moves records without touching queued/stealable/queuedTotal. The
// swapped chain is newest-first; reversing through inboxScratch
// restores arrival order.
func (rt *Runtime) drainInbox(w *worker) {
	if w.inbox.empty() {
		return
	}
	chain := w.inbox.swapAll()
	if chain == nil {
		return
	}
	buf := w.inboxScratch[:0]
	for t := chain; t != nil; t = t.next {
		buf = append(buf, t)
	}
	locked := false
	for i := len(buf) - 1; i >= 0; i-- {
		t := buf[i]
		t.next = nil
		buf[i] = nil
		if t.class == core.ClassPlain {
			w.deq.pushBottom(t)
			continue
		}
		if !locked {
			rt.lockWorker(w, w.id)
			locked = true
		}
		rt.pushStructLocked(w, t)
	}
	if locked {
		w.mu.Unlock()
	}
	w.inboxScratch = buf[:0]
}

// sweepInbox drains a retired worker's inbox and re-inserts every record
// on a survivor. Called by the retirement drain and by any pusher that
// observed the dead bit after its push landed — the swapAll hand-off
// makes concurrent sweeps safe (each record appears in exactly one swap
// result), so the sweep is idempotent. The records were accounted
// against the dead target at insert time; each is unaccounted here and
// re-accounted by the fresh insert. Rerouting at this point is
// placement, not redistribution, so Redistributed is not counted (the
// distinction TestRedistributedCounterThroughReportNative pins down).
func (rt *Runtime) sweepInbox(w *worker, ctr *perfmon.Counters) {
	chain := w.inbox.swapAll()
	moved := false
	for chain != nil {
		t := chain
		chain = chain.next
		t.next = nil
		w.queued.Add(-1)
		if t.class == core.ClassPlain || t.class == core.ClassTaskSet {
			w.stealable.Add(-1)
		}
		rt.queuedTotal.Add(-1)
		t.server = rt.rerouteTarget(t)
		sv := rt.insertFrom(t, ctr, nil)
		rt.wakeTargets(1 << uint(sv))
		moved = true
	}
	if moved {
		rt.wakePolicy(ctr)
	}
}

// insert pushes t onto its server's queues, returning the worker it
// went to. actor is the id of the worker whose goroutine is running.
func (rt *Runtime) insert(t *task, actor int) int {
	return rt.insertFrom(t, &rt.cfg.Mon.Per[actor], rt.workers[actor])
}

// insertFrom is insert with an explicit contention sink and the worker
// whose goroutine is executing the call (nil when the caller is not a
// worker goroutine — the timekeeper, a retirement drain, an inbox
// sweep; self only enables the owner's lock-free fast path, it is never
// required for correctness).
//
// The insert counts, then publishes: the per-worker and machine hints
// are bumped before the record becomes visible, so any consumer that
// finds the record also finds counts covering it (consumers decrement
// after taking). The owner's own plain spawns go straight onto its
// deque bottom; everything else lands in the target's inbox with one
// CAS. A dead target is rerouted up front, and re-checked after the
// push: the retirement drain publishes the dead bit before sweeping, so
// a push that raced the sweep re-sweeps the inbox itself.
func (rt *Runtime) insertFrom(t *task, ctr *perfmon.Counters, self *worker) int {
	for {
		sv := t.server
		if rt.dead.Load() != 0 && rt.isDead(sv) {
			t.server = rt.rerouteTarget(t)
			continue
		}
		w := rt.workers[sv]
		w.queued.Add(1)
		if t.class == core.ClassPlain || t.class == core.ClassTaskSet {
			w.stealable.Add(1)
		}
		rt.queuedTotal.Add(1)
		if self == w && t.class == core.ClassPlain {
			w.deq.pushBottom(t)
			return sv
		}
		w.inbox.push(t)
		if rt.dead.Load() != 0 && rt.isDead(sv) {
			rt.sweepInbox(w, ctr)
		}
		return sv
	}
}

// insertAndWake inserts t and applies the wake policy. The task's name
// is captured before the insert publishes it: once queued, another
// worker may steal it, run it, and recycle the record.
func (rt *Runtime) insertAndWake(t *task, from int) {
	name := t.name
	server := rt.insert(t, from)
	rt.trace(rt.workers[from], trace.KindEnqueue, -1, name, int64(server))
	rt.wakeAfterEnqueue(server, from)
}

// spawn creates, places, and enqueues one task on behalf of ctx. Exactly
// one of fn and payload is non-nil; payload tasks run through
// Config.Invoke.
//
// The scope and live counters are bumped only after placement succeeds:
// placeTask runs the user-supplied Home callback, and if that panics (e.g.
// the address lies outside the embedding runtime's space) the counters
// must not charge a task that was never enqueued — a leaked live count
// would keep done from ever closing and hang Run instead of returning
// the recorded failure.
func (rt *Runtime) spawn(c *Ctx, name string, a core.Affinity, mon *Monitor, fn func(*Ctx), payload any, idx int32, prio int8, deadlineNS int64) {
	from := c.w.id
	rt.cfg.Mon.Per[from].Spawns++
	t := rt.newTask(c.w)
	t.name, t.fn, t.payload, t.mon, t.idx = name, fn, payload, mon, idx
	t.scope = c.scope
	if rt.shed != nil {
		t.prio, t.deadlineNS = clampPrio(prio), deadlineNS
	}
	if in := rt.inj; in != nil && in.tracked[name] {
		in.noteSpawn(t) // assigns the per-name index a fault plan targets
	}
	rt.placeTask(t, a, from) // may panic in cfg.Home; no accounting yet
	if t.scope != nil {
		t.scope.n.Add(1)
	}
	rt.live.Add(1)
	if rt.shed != nil {
		rt.prioLive[t.prio].Add(1)
	}
	if t.class == core.ClassTaskSet {
		server := rt.placeSet(t, &rt.cfg.Mon.Per[from]) // t is published after this
		rt.trace(c.w, trace.KindEnqueue, -1, name, int64(server))
		rt.wakeAfterEnqueue(server, from)
		return
	}
	rt.insertAndWake(t, from)
}

// spawnN creates, places, and enqueues n sibling tasks sharing one
// payload; member i runs through Config.InvokeN with index i, and get
// supplies each member's affinity and optional monitor.
//
// The burst is published as one batch: every record is built and placed
// first (placement may panic in cfg.Home, and nothing has been accounted
// or published at that point, so the panic surfaces as a *fault.TaskFailure
// without leaking live counts), the scope and live
// counters then cover the whole batch before any member becomes visible
// (a published child could otherwise complete and cross scope.n through
// zero before its siblings were counted, releasing WaitFor early), and
// finally the batch is published — with one deque bottom store when
// every child is a plain task on the spawner itself, per-task inserts
// otherwise — followed by ONE wake decision for the whole burst.
// SpawnBatches counts these batch publications.
func (rt *Runtime) spawnN(c *Ctx, name string, n int, get func(int) (core.Affinity, *Monitor, int8, int64), payload any) {
	if n <= 0 {
		return
	}
	w := c.w
	from := w.id
	ctr := &rt.cfg.Mon.Per[from]
	ctr.Spawns += int64(n)
	ctr.SpawnBatches++
	batch := w.spawnScratch[:0]
	allPlainSelf := true
	for i := 0; i < n; i++ {
		t := rt.newTask(w)
		t.name, t.payload, t.idx = name, payload, int32(i)
		t.scope = c.scope
		a, mon, prio, dl := get(i)
		t.mon = mon
		if rt.shed != nil {
			t.prio, t.deadlineNS = clampPrio(prio), dl
		}
		if in := rt.inj; in != nil && in.tracked[name] {
			in.noteSpawn(t)
		}
		// May panic in cfg.Home; nothing accounted yet. Set members
		// resolve their home under the shard lock at publish time
		// (placeSet).
		rt.placeTask(t, a, from)
		if t.class != core.ClassPlain || t.server != from {
			allPlainSelf = false
		}
		batch = append(batch, t)
	}
	if c.scope != nil {
		c.scope.n.Add(int64(n))
	}
	rt.live.Add(int64(n))
	if rt.shed != nil {
		for _, t := range batch {
			rt.prioLive[t.prio].Add(1)
		}
	}
	if allPlainSelf {
		w.queued.Add(int64(n))
		w.stealable.Add(int64(n))
		rt.queuedTotal.Add(int64(n))
		for range batch {
			rt.trace(w, trace.KindEnqueue, -1, name, int64(from))
		}
		w.deq.pushBottomN(batch)
	} else {
		// Mixed batch. Set members resolve through the shard protocol,
		// the spawner's own plain children ride its deque, and
		// cross-worker plain children ride the target's inbox. Structured
		// records (pinned, object-bound) are chained per target and
		// published under one lock per (batch, target): pushing them
		// through the inbox instead would leave them invisible to every
		// steal rule until the owner drains, which turns object-bound-
		// heavy batches into failed-steal storms on the thieves' side.
		if w.spawnHeads == nil {
			w.spawnHeads = make([]*task, rt.np)
			w.spawnTails = make([]*task, rt.np)
		}
		var targets uint64
		heads, tails := w.spawnHeads, w.spawnTails
		order := w.spawnOrder[:0]
		for _, t := range batch {
			if t.class == core.ClassTaskSet {
				sv := rt.placeSet(t, ctr)
				rt.trace(w, trace.KindEnqueue, -1, name, int64(sv))
				targets |= 1 << uint(sv)
				continue
			}
			if t.class == core.ClassPlain {
				if t.server == from {
					w.queued.Add(1)
					w.stealable.Add(1)
					rt.queuedTotal.Add(1)
					w.deq.pushBottom(t)
					rt.trace(w, trace.KindEnqueue, -1, name, int64(from))
					continue
				}
				sv := rt.insertFrom(t, ctr, w)
				rt.trace(w, trace.KindEnqueue, -1, name, int64(sv))
				targets |= 1 << uint(sv)
				continue
			}
			sv := t.server
			t.next = nil
			if heads[sv] == nil {
				heads[sv] = t
				order = append(order, sv)
			} else {
				tails[sv].next = t
			}
			tails[sv] = t
		}
		for _, sv := range order {
			chain := heads[sv]
			heads[sv], tails[sv] = nil, nil
			wv := rt.workers[sv]
			rt.lockWorkerCtr(wv, ctr)
			if rt.dead.Load() != 0 && rt.isDead(sv) {
				// Target retired since placement: reroute each record
				// through the single-insert slow path (which re-homes it).
				wv.mu.Unlock()
				for t := chain; t != nil; {
					next := t.next
					t.next = nil
					tsv := rt.insertFrom(t, ctr, w)
					rt.trace(w, trace.KindEnqueue, -1, name, int64(tsv))
					targets |= 1 << uint(tsv)
					t = next
				}
				continue
			}
			n := int64(0)
			for t := chain; t != nil; {
				next := t.next
				t.next = nil
				rt.pushLocked(wv, t)
				n++
				t = next
			}
			wv.mu.Unlock()
			rt.queuedTotal.Add(n)
			for i := int64(0); i < n; i++ {
				rt.trace(w, trace.KindEnqueue, -1, name, int64(sv))
			}
			targets |= 1 << uint(sv)
		}
		w.spawnOrder = order[:0]
		rt.wakeTargets(targets)
	}
	rt.wakePolicy(ctr)
	for i := range batch {
		batch[i] = nil
	}
	w.spawnScratch = batch[:0]
}

// take removes the next task for w: local queues first, then stealing.
//
// The common case runs without any lock: drain the inbox, probe the
// locked structures only when the lockedWork hint says they hold
// something, then pop the own deque — a plain spawn-and-run cycle is an
// inbox emptiness load plus one deque CAS. The dispatch priority mirrors
// the simulator's (current slot back to back, non-empty list, pinned
// queue, then the plain deque), which keeps P=1 native schedules
// token-identical to the simulated ones.
func (rt *Runtime) take(w *worker) *task {
	rt.drainInbox(w)
	if w.lockedWork.Load() > 0 {
		rt.lockWorker(w, w.id)
		t := rt.takeLocked(w)
		w.mu.Unlock()
		if t != nil {
			return t
		}
	}
	if t := w.deq.takeTop(); t != nil {
		rt.noteDequeued(w, 1)
		rt.noteRemoved(w, t)
		return t
	}
	return rt.steal(w)
}

// takeLocked pops from w's lock-guarded structures in the simulator's
// priority order: the slot being drained back to back, the non-empty
// list, then the pinned queue. Called with w.mu held.
func (rt *Runtime) takeLocked(w *worker) *task {
	if w.cur != nil && !w.cur.empty() {
		t := w.cur.pop()
		rt.afterSlotPop(w, w.cur)
		rt.noteLockedTaken(w, t)
		return t
	}
	w.cur = nil
	if q := w.nonEmpty.head; q != nil {
		t := q.pop()
		rt.afterSlotPop(w, q)
		if !q.empty() {
			w.cur = q
		}
		rt.noteLockedTaken(w, t)
		return t
	}
	if t := w.pinned.pop(); t != nil {
		rt.noteLockedTaken(w, t)
		return t
	}
	return nil
}

// noteLockedTaken accounts one task removed from w's locked structures
// (w.mu held).
func (rt *Runtime) noteLockedTaken(w *worker, t *task) {
	w.lockedWork.Add(-1)
	if t.class == core.ClassTaskSet {
		w.setQueued.Add(-1)
	}
	rt.noteDequeued(w, 1)
	rt.noteRemoved(w, t)
}

func (rt *Runtime) afterSlotPop(w *worker, q *taskQueue) {
	if q.empty() {
		w.nonEmpty.removeQ(q)
		if w.cur == q {
			w.cur = nil
		}
	}
}

// noteDequeued accounts n tasks removed from w's queues (w.mu held).
func (rt *Runtime) noteDequeued(w *worker, n int) {
	w.queued.Add(int64(-n))
	rt.queuedTotal.Add(int64(-n))
}

// noteRemoved maintains w's stealable hint for one removed task (w.mu
// held; pairs with the increment in pushLocked).
func (rt *Runtime) noteRemoved(w *worker, t *task) {
	if t.class == core.ClassPlain || t.class == core.ClassTaskSet {
		w.stealable.Add(-1)
	}
}

// steal scans victims for work, preferring same-cluster victims when
// the policy asks for it. There is no global steal lock: concurrent
// thieves probing different victims proceed in parallel, and each probe
// synchronizes only with the two workers and (for a set move) the one
// set-table shard involved.
func (rt *Runtime) steal(w *worker) *task {
	if rt.pol.DisableStealing || rt.queuedTotal.Load() == 0 {
		return nil
	}
	first, second := rt.victimRings(w).Order(rt.pol.ClusterStealFirst, rt.clusterOnly.Load())
	if t := rt.stealScan(w, first); t != nil {
		return t
	}
	return rt.stealScan(w, second)
}

// victimRings returns w's probe order, rebuilt first if pool membership
// changed since it was built (once, for a fixed healthy pool). Owner
// goroutine only. The dead mask read here may already be newer than the
// epoch, which only means the next call rebuilds again; a momentarily
// stale ring is only an inefficiency, since stealScan's queued == 0 skip
// keeps dead victims from yielding work.
func (rt *Runtime) victimRings(w *worker) *core.Rings {
	if e := rt.epoch.Load(); e != w.ringEpoch {
		w.ringEpoch = e
		w.rings.Build(rt.topo, w.id, rt.deadSet())
	}
	return &w.rings
}

// stealScan probes one victim ring in order. A probe that examined a
// victim and came back empty-handed — the victim drained meanwhile, or
// holds only work the steal rules refuse — counts as a failed steal.
func (rt *Runtime) stealScan(w *worker, ring []int) *task {
	ctr := &rt.cfg.Mon.Per[w.id]
	for _, vid := range ring {
		v := rt.workers[vid]
		q := v.queued.Load()
		if q == 0 {
			continue
		}
		if q < 2 && v.stealable.Load() == 0 {
			// The victim's one queued task is pinned or object-bound;
			// every steal rule refuses it from a non-backlogged victim,
			// so the probe (and its lock) would be wasted.
			continue
		}
		ctr.StealTries++
		rt.mirror.stealTries.n.Add(1)
		t := rt.stealFrom(v, w)
		if t == nil {
			ctr.FailedSteals++
			rt.mirror.failedSteals.n.Add(1)
			continue
		}
		if rt.topo.SameCluster(w.id, vid) {
			ctr.StealsLocal++
			rt.mirror.stealsLocal.n.Add(1)
		} else {
			ctr.StealsRemote++
			rt.mirror.stealsRemote.n.Add(1)
		}
		rt.trace(w, trace.KindSteal, w.id, t.name, int64(vid))
		return t
	}
	return nil
}

// stealFrom takes work from victim v for thief w, with the paper's
// preference order: a whole task-affinity set, a plain task, and finally
// (reluctantly) one object-bound or pinned task from a backlogged
// victim.
//
// The probe is ordered by cost: the sets-first phase takes the victim's
// lock only when the setQueued hint says a set is queued; a plain steal
// is a single CAS on the victim's deque top; the victim's inbox is
// probed lock-free (swap, keep the oldest plain record, push the rest
// back); and only the backlog-gated reluctant rules on the locked
// structures pay for the victim's mutex. Single-task steals hand the
// task straight to the thief's goroutine, so the thief's own queues are
// never touched; only a whole-set move adds the thief's lock (stealSet,
// in ascending global id order — the deadlock-avoidance protocol every
// two-worker path follows) plus the one set-table shard involved.
func (rt *Runtime) stealFrom(v, w *worker) *task {
	if rt.pol.StealWholeSets && v.setQueued.Load() > 0 {
		rt.lockWorker(v, w.id)
		t := rt.stealSet(v, w)
		v.mu.Unlock()
		if t != nil {
			return t
		}
	}
	if t := v.deq.takeTop(); t != nil {
		rt.noteDequeued(v, 1)
		rt.noteRemoved(v, t)
		return t
	}
	if t := rt.stealInbox(v, w); t != nil {
		return t
	}
	return rt.stealLockedReluctant(v, w)
}

// stealInbox probes v's inbox for the oldest stealable record. Pop-one
// is unsafe on a Treiber stack whose records get recycled (see inbox),
// so the thief swaps the whole chain, keeps one record, and pushes
// everything else back in one CAS, preserving relative order.
//
// Plain records are always fair game. The pinned and object-bound
// records an inbox can hold are exactly the work the reluctant steal
// rules guard behind backlog checks, and riding the inbox grants no
// license to skip those checks — so they are taken only under the same
// gates stealLockedReluctant applies to the locked structures (victim
// backlogged, object-bound only under StealObjectBound). Without this,
// object-bound-heavy workloads starve thieves into a failed-steal storm
// whenever the work sits in inboxes the owners haven't drained yet.
func (rt *Runtime) stealInbox(v, w *worker) *task {
	if v.inbox.empty() {
		return nil
	}
	chain := v.inbox.swapAll()
	if chain == nil {
		return nil
	}
	buf := w.inboxScratch[:0]
	for t := chain; t != nil; t = t.next {
		buf = append(buf, t)
	}
	var taken *task
	for i := len(buf) - 1; i >= 0; i-- { // chain is newest-first; oldest plain wins
		if buf[i].class == core.ClassPlain {
			taken = buf[i]
			buf = append(buf[:i], buf[i+1:]...)
			break
		}
	}
	if taken == nil {
		backlog := int(v.queued.Load())
		for i := len(buf) - 1; i >= 0; i-- { // oldest permitted structured record
			if rt.pol.MayStealHead(buf[i].class, backlog) {
				taken = buf[i]
				buf = append(buf[:i], buf[i+1:]...)
				break
			}
		}
	}
	if len(buf) > 0 {
		for i := 0; i < len(buf)-1; i++ {
			buf[i].next = buf[i+1]
		}
		v.inbox.pushChain(buf[0], buf[len(buf)-1])
		if rt.dead.Load() != 0 && rt.isDead(v.id) {
			// The victim retired while its records were detached; its
			// drain may have missed them, so sweep them to survivors.
			rt.sweepInbox(v, &rt.cfg.Mon.Per[w.id])
		}
	}
	for i := range buf {
		buf[i] = nil
	}
	w.inboxScratch = buf[:0]
	if taken == nil {
		return nil
	}
	taken.next = nil
	rt.noteDequeued(v, 1)
	rt.noteRemoved(v, taken)
	return taken
}

// stealLockedReluctant applies the reluctant-steal gate
// (core.Policy.MayStealHead) to v's locked structures: the pinned-queue
// head, then each slot head; a lone set member it lets through is a
// deliberate, counted split. The lock-free check first rejects the
// common nothing-reluctantly-stealable case without touching v's mutex.
func (rt *Runtime) stealLockedReluctant(v, w *worker) *task {
	if v.lockedWork.Load() == 0 {
		return nil
	}
	if v.queued.Load() < 2 && (rt.pol.StealWholeSets || v.setQueued.Load() == 0) {
		return nil
	}
	rt.lockWorker(v, w.id)
	defer v.mu.Unlock()
	backlog := int(v.queued.Load())
	if t := v.pinned.head; t != nil && rt.pol.MayStealHead(t.class, backlog) {
		v.pinned.remove(t)
		rt.noteLockedTaken(v, t)
		return t
	}
	for q := v.nonEmpty.head; q != nil; q = q.nextQ {
		head := q.head
		if head == nil || !rt.pol.MayStealHead(head.class, backlog) {
			continue
		}
		if head.class == core.ClassTaskSet {
			rt.setSplits.Add(1)
		}
		q.remove(head)
		rt.afterSlotPop(v, q)
		rt.noteLockedTaken(v, head)
		return head
	}
	return nil
}

// stealSet moves one whole task-affinity set from v to thief w: drain
// every member, re-home the set under its shard lock, keep the head for
// the thief to run and queue the rest behind it for back-to-back
// servicing. Called with v.mu held; returns with v.mu still held.
//
// The move needs both worker locks plus the set's shard. A cheap peek
// under v.mu alone rejects the common no-set-queued case before the
// thief's lock is ever taken. Acquiring w.mu second is in order when
// v.id < w.id; out of order it is tried without blocking (TryLock
// cannot deadlock), and on failure both locks are dropped and retaken
// in ascending id order — after which the peek is stale and the scan
// below revalidates everything from scratch.
func (rt *Runtime) stealSet(v, w *worker) *task {
	found := false
	for q := v.nonEmpty.head; q != nil; q = q.nextQ {
		if h := q.head; h != nil && h.class == core.ClassTaskSet {
			found = true
			break
		}
	}
	if !found {
		return nil
	}
	ctr := &rt.cfg.Mon.Per[w.id]
	if v.id < w.id {
		rt.lockWorker(w, w.id)
	} else if !w.mu.TryLock() {
		ctr.LockContention++
		rt.mirror.lockContention.n.Add(1)
		v.mu.Unlock()
		rt.lockWorker(w, w.id)
		rt.lockWorker(v, w.id)
	}
	defer w.mu.Unlock()
	for q := v.nonEmpty.head; q != nil; q = q.nextQ {
		head := q.head
		if head == nil || head.class != core.ClassTaskSet {
			continue
		}
		obj := head.affObj
		sh := rt.shardOf(obj)
		sh.lock(rt, ctr)
		// Queued membership at v implies the shard records v as the
		// set's home (inserts validate under the shard lock, moves
		// drain the victim before releasing it); assert rather than
		// assume — a violation would be a split in the making.
		if sh.home[obj] != v.id {
			rt.setSplits.Add(1)
		}
		sh.home[obj] = w.id
		moved := w.setScratch[:0]
		for {
			t := q.popMatching(obj)
			if t == nil {
				break
			}
			moved = append(moved, t)
		}
		rt.afterSlotPop(v, q)
		rt.noteDequeued(v, len(moved))
		// popMatching matches by object, so the move can carry
		// object-bound tasks naming the set's object along with the set
		// members; the stealable/setQueued hints count only some
		// classes, so they are maintained per task.
		for _, t := range moved {
			rt.noteRemoved(v, t)
		}
		v.lockedWork.Add(-int64(len(moved)))
		for _, t := range moved {
			if t.class == core.ClassTaskSet {
				v.setQueued.Add(-1)
			}
		}
		sh.mu.Unlock()
		first := moved[0]
		first.server = w.id
		if len(moved) > 1 {
			for _, t := range moved[1:] {
				t.server = w.id
				tq := &w.slots[t.slot]
				tq.push(t)
				w.nonEmpty.add(tq)
				if t.class == core.ClassPlain || t.class == core.ClassTaskSet {
					w.stealable.Add(1)
				}
				w.lockedWork.Add(1)
				if t.class == core.ClassTaskSet {
					w.setQueued.Add(1)
				}
			}
			w.queued.Add(int64(len(moved) - 1))
			w.cur = &w.slots[first.slot]
			rt.queuedTotal.Add(int64(len(moved) - 1))
		}
		w.setScratch = moved[:0]
		ctr.SetSteals++
		rt.mirror.setSteals.n.Add(1)
		return first
	}
	return nil
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
	t.ctx = Ctx{w: w, rt: rt, scope: t.scope}
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
	// Unconditional (not gated on armed): CounterSnapshot reports it as
	// Completed on every run, and the live counter on the next line
	// already pays a shared atomic here.
	rt.completed.Add(1)
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
	scope *scope

	// heldMon tracks the mutex-function monitor currently held by this
	// task, so a stop-unwind out of a Cond.Wait (which releases the
	// monitor) can tell execute's deferred unlock to stand down.
	heldMon *Monitor
}

// ProcID returns the executing worker.
func (c *Ctx) ProcID() int { return c.w.id }

// Now returns wall-clock nanoseconds since Run started.
func (c *Ctx) Now() int64 { return c.rt.nowNS() }

// Spawn creates and enqueues a task with the given affinity; mon, when
// non-nil, makes it a mutex function on that monitor.
func (c *Ctx) Spawn(name string, a core.Affinity, mon *Monitor, fn func(*Ctx)) {
	c.rt.spawn(c, name, a, mon, fn, nil, -1, 0, 0)
}

// SpawnPayload creates and enqueues a task whose body is Config.Invoke
// applied to payload. It lets the embedding runtime avoid allocating a
// per-spawn wrapper closure: the adapter is configured once and the
// payload (typically the user's func value) rides through the pooled
// task record. prio is the task's priority class (clamped to [0,7])
// and deadlineNS, when positive, the absolute run-relative nanosecond
// after which the task is shed instead of run; both are ignored unless
// a ShedPolicy is armed.
func (c *Ctx) SpawnPayload(name string, a core.Affinity, mon *Monitor, payload any, prio int8, deadlineNS int64) {
	c.rt.spawn(c, name, a, mon, nil, payload, -1, prio, deadlineNS)
}

// SpawnN creates and enqueues n sibling tasks sharing one payload; the
// get callback supplies each member's affinity, optional monitor,
// priority class, and deadline, and member i runs through
// Config.InvokeN with index i. A burst spawned this way is published
// as one batch — one deque publish and one wake decision instead of n
// (see spawnN).
func (c *Ctx) SpawnN(name string, n int, get func(int) (core.Affinity, *Monitor, int8, int64), payload any) {
	c.rt.spawnN(c, name, n, get, payload)
}

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
