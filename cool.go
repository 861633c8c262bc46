// Package cool is a Go reimplementation of the COOL parallel runtime from
// "Data Locality and Load Balancing in COOL" (Chandra, Gupta, Hennessy,
// PPoPP 1993), running on a simulated DASH-style shared-memory
// multiprocessor.
//
// Programs dynamically create lightweight tasks and attach optional
// affinity hints describing the objects each task references. The runtime
// uses the hints to schedule tasks close — in the simulated memory
// hierarchy — to their objects: task affinity groups tasks for
// back-to-back cache reuse, object affinity collocates a task with the
// cluster memory that homes its object, and processor affinity places a
// task directly. Objects can be placed at allocation time and migrated
// between cluster memories. Hints never change program semantics; they
// only change where and when tasks run.
//
// Because the machine is simulated, speedups and cache behaviour are
// measured in deterministic simulated cycles, reproducing the paper's
// methodology on any host.
//
// A minimal program:
//
//	rt, err := cool.NewRuntime(cool.Config{Processors: 8})
//	data := rt.NewF64(1<<16, 0)
//	err = rt.Run(func(ctx *cool.Ctx) {
//		ctx.WaitFor(func() {
//			for c := 0; c < 8; c++ {
//				part := data.Slice(c*8192, (c+1)*8192)
//				ctx.Spawn("sum", func(ctx *cool.Ctx) {
//					for i := 0; i < part.Len(); i++ {
//						_ = ctx.ReadF64(part, i)
//						ctx.Compute(1)
//					}
//				}, cool.ObjectAffinity(part.Base))
//			}
//		})
//	})
package cool

import (
	"fmt"
	"sync"

	"github.com/coolrts/cool/internal/adapt"
	"github.com/coolrts/cool/internal/cache"
	"github.com/coolrts/cool/internal/core"
	"github.com/coolrts/cool/internal/fault"
	"github.com/coolrts/cool/internal/machine"
	"github.com/coolrts/cool/internal/memsim"
	"github.com/coolrts/cool/internal/native"
	"github.com/coolrts/cool/internal/perfmon"
	"github.com/coolrts/cool/internal/sim"
)

// Backend selects the execution engine a Runtime uses.
type Backend int

const (
	// BackendSim executes on the deterministic discrete-event simulator:
	// time is simulated DASH cycles, the memory hierarchy is modelled,
	// and runs are bit-reproducible. The default.
	BackendSim Backend = iota
	// BackendNative executes on real goroutines, one worker per
	// processor, with the same affinity-queue scheduler. Time is
	// wall-clock nanoseconds; the memory system is the host's, so cache
	// counters and cycle charges are not modelled. The robustness stack
	// works on both backends: Faults, Retry, Deadline, and the
	// no-progress watchdog run natively with every cycle quantity read
	// as wall-clock nanoseconds (DegradeMemory events are ignored — the
	// memory system is real). Only the options that require the
	// simulated machine itself (Machine, CycleLimit, Quantum, Adapt) are
	// rejected with *UnsupportedOnNativeError.
	BackendNative
)

func (b Backend) String() string {
	switch b {
	case BackendSim:
		return "sim"
	case BackendNative:
		return "native"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// SchedPolicy exposes the scheduling knobs studied in the paper. The zero
// value is the runtime's default policy (hints honoured, 64 task-affinity
// queues per server, whole-set stealing, cluster-first victim order,
// object-bound tasks stolen only as a last resort).
type SchedPolicy struct {
	// IgnoreHints reproduces the paper's "Base" program versions:
	// round-robin task placement with no locality.
	IgnoreHints bool
	// QueueArraySize overrides the number of task-affinity queues per
	// server (0 means the default of 64).
	QueueArraySize int
	// ClusterStealingOnly restricts stealing to the thief's cluster
	// (the paper's Panel Cholesky cluster-stealing experiment).
	ClusterStealingOnly bool
	// NoClusterStealFirst disables preferring same-cluster victims.
	NoClusterStealFirst bool
	// NoSetStealing disables stealing whole task-affinity sets.
	NoSetStealing bool
	// NoObjectBoundStealing forbids stealing object-affinity tasks
	// entirely (locality over load balance).
	NoObjectBoundStealing bool
	// NoStealing disables work stealing entirely (ablation).
	NoStealing bool
}

// Config describes the simulated machine and runtime policy.
type Config struct {
	// Processors is the number of server processes (and simulated
	// processors). Required.
	Processors int
	// ClusterSize is the number of processors sharing one local memory
	// (0 means DASH's 4).
	ClusterSize int
	// Sched selects the scheduling policy.
	Sched SchedPolicy
	// Quantum overrides the interleaving quantum in cycles (0 = default).
	Quantum int64
	// Seed drives all randomized decisions (0 = default seed 1).
	Seed int64
	// TraceCapacity, when positive, records up to that many scheduler
	// events (see Runtime.TraceEvents, TraceDump, TraceTimeline).
	TraceCapacity int
	// Machine, when non-nil, overrides the full machine description
	// (latencies, cache geometry); Processors/ClusterSize are ignored.
	Machine *machine.Config
	// Faults, when non-nil, is the deterministic fault-injection plan
	// applied to the run (see FaultPlan). Invalid plans are rejected by
	// NewRuntime. On the native backend event times and durations are
	// read as wall-clock nanoseconds and DegradeMemory events are
	// ignored.
	Faults *FaultPlan
	// CycleLimit, when positive, arms a no-progress watchdog: if
	// simulated time passes it with tasks still outstanding, Run stops
	// and returns a *NoProgressError carrying a queue/clock snapshot
	// instead of simulating (or hanging) forever.
	CycleLimit int64
	// Retry, when non-nil, enables transient-failure retries: task
	// launches aborted by FailTask events or FlakyProcessor windows are
	// re-placed on a different server and retried with exponential
	// backoff (see RetryPolicy, including the panic interaction). When
	// nil, the first transient abort fails the run. On the native
	// backend backoffs are read as wall-clock nanoseconds.
	Retry *RetryPolicy
	// Deadline, when positive, bounds the run to that many simulated
	// cycles — wall-clock nanoseconds on the native backend. An
	// over-budget run stops and returns a *DeadlineExceededError
	// carrying a progress snapshot (per-server queue depths, and on the
	// simulator the blocked tasks and what they wait on).
	Deadline int64
	// Backend selects the execution engine (default: the simulator).
	Backend Backend
	// MaxProcessors (native backend only), when positive, reserves
	// spare worker capacity in [Processors, 64]: the pool starts at
	// Processors workers and can grow to MaxProcessors mid-run via
	// Runtime.AddWorkers, and shrink back via Runtime.Retire. Zero keeps
	// the pool fixed.
	MaxProcessors int
	// Shed (native backend only), when non-nil, arms the SLO layer:
	// WithPriority/WithDeadline spawn options are enforced at dispatch,
	// and overload sheds the lowest-priority tasks first (see
	// ShedPolicy).
	Shed *ShedPolicy
	// Adapt (simulator only), when non-nil, arms the adaptive-affinity
	// controller: each epoch it reads the machine-wide counter deltas
	// and turns cluster-only stealing on or off, recording every change
	// as a decision trace (see AdaptPolicy, Report.Decisions). Native
	// programs set the knob with Ctx.SetClusterStealingOnly.
	Adapt *AdaptPolicy
}

// Runtime is one simulated COOL program execution environment. Allocate
// objects, then call Run exactly once.
type Runtime struct {
	cfg     machine.Config
	pub     Config      // the public config this runtime was built from (Reset rebuilds from it)
	pol     core.Policy // resolved scheduling policy (Reset re-applies it)
	backend Backend
	eng     *sim.Engine // sim backend only
	space   *memsim.Space
	caches  *cache.System   // sim backend only
	sched   *core.Scheduler // sim backend only
	nat     *native.Runtime // native backend only
	mon     *perfmon.Monitor
	// adaptCtl is the sim backend's adaptive controller (nil unless
	// Config.Adapt is set).
	adaptCtl *adapt.Controller
	ran      bool
	tdFree   []*core.TaskDesc // recycled task descriptors (see ctx.go)

	// spaceMu guards space on the native backend, where allocation,
	// migration, and home lookups run concurrently. The simulator is
	// single-threaded and never contends, but locking is cheap relative
	// to allocation so it is taken unconditionally.
	spaceMu sync.RWMutex

	// Job-level SLO defaults (SetJobSLO): the priority class and absolute
	// deadline applied to spawns that carry no WithPriority/WithDeadline
	// option of their own. Set between runs only (the serving layer tags
	// each job before Run); read concurrently by spawning workers.
	jobPrio     int8
	jobDeadline int64

	// setupErr records the first invalid pre-Run operation (e.g. a
	// non-positive allocation size); Run reports it instead of running.
	setupErr error
}

// setupError records a sticky setup-phase error (first one wins).
func (rt *Runtime) setupError(format string, args ...any) {
	if rt.setupErr == nil {
		rt.setupErr = fmt.Errorf(format, args...)
	}
}

// NewRuntime builds a runtime for the given configuration.
func NewRuntime(c Config) (*Runtime, error) {
	if c.Backend == BackendNative {
		if err := nativeUnsupported(c); err != nil {
			return nil, err
		}
	} else if c.Backend != BackendSim {
		return nil, fmt.Errorf("cool: unknown backend %d", int(c.Backend))
	} else {
		// The elastic pool and the shedding layer schedule real worker
		// goroutines; the single-threaded simulator has neither.
		switch {
		case c.MaxProcessors > 0:
			return nil, fmt.Errorf("cool: Config.MaxProcessors requires Backend: BackendNative")
		case c.Shed != nil:
			return nil, fmt.Errorf("cool: Config.Shed requires Backend: BackendNative")
		}
	}
	var mc machine.Config
	if c.Machine != nil {
		mc = *c.Machine
	} else {
		if c.Processors <= 0 {
			return nil, fmt.Errorf("cool: Config.Processors must be positive")
		}
		if c.ClusterSize < 0 {
			return nil, fmt.Errorf("cool: Config.ClusterSize must not be negative")
		}
		if c.Quantum < 0 {
			return nil, fmt.Errorf("cool: Config.Quantum must not be negative")
		}
		mc = machine.DASH(c.Processors)
		if c.ClusterSize > 0 {
			mc.ClusterSize = c.ClusterSize
		}
		if c.Quantum > 0 {
			mc.Quantum = c.Quantum
		}
		if c.Seed != 0 {
			mc.Seed = c.Seed
		}
	}
	if c.Sched.QueueArraySize < 0 {
		return nil, fmt.Errorf("cool: Config.Sched.QueueArraySize must not be negative")
	}
	if c.TraceCapacity < 0 {
		return nil, fmt.Errorf("cool: Config.TraceCapacity must not be negative")
	}
	if c.CycleLimit < 0 {
		return nil, fmt.Errorf("cool: Config.CycleLimit must not be negative")
	}
	if c.Deadline < 0 {
		return nil, fmt.Errorf("cool: Config.Deadline must not be negative")
	}
	if c.Adapt != nil {
		if err := validateAdapt(c.Adapt); err != nil {
			return nil, err
		}
	}
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	pol := core.DefaultPolicy()
	pol.IgnoreHints = c.Sched.IgnoreHints
	if c.Sched.QueueArraySize > 0 {
		pol.QueueArraySize = c.Sched.QueueArraySize
	}
	pol.ClusterStealingOnly = c.Sched.ClusterStealingOnly
	pol.ClusterStealFirst = !c.Sched.NoClusterStealFirst
	pol.StealWholeSets = !c.Sched.NoSetStealing
	pol.StealObjectBound = !c.Sched.NoObjectBoundStealing
	pol.DisableStealing = c.Sched.NoStealing

	if c.Backend == BackendNative {
		rt, err := newNativeRuntime(c, mc, pol)
		if err == nil && captureHook != nil {
			captureHook(rt)
		}
		return rt, err
	}
	rt := &Runtime{cfg: mc, pub: c, pol: pol}
	if err := rt.initSim(); err != nil {
		return nil, err
	}
	if captureHook != nil {
		captureHook(rt)
	}
	return rt, nil
}

// initSim builds (or, through Reset, rebuilds) the simulator engine
// stack from the stored configuration. The simulated pieces are cheap
// relative to a run, so warm reuse simply reconstructs them; only the
// recycled task descriptors survive across resets.
func (rt *Runtime) initSim() error {
	c, mc := rt.pub, rt.cfg
	rt.eng = sim.New(mc.Processors, mc.Quantum, mc.Seed)
	rt.space = memsim.New(mc)
	rt.mon = perfmon.New(mc.Processors)
	rt.caches = cache.New(mc, rt.space, rt.mon)
	rt.sched = core.NewScheduler(mc, rt.pol, rt.eng, rt.space, rt.mon)
	if c.TraceCapacity > 0 {
		rt.enableTracing(c.TraceCapacity)
	}
	rt.eng.SetSnapshot(rt.sched.Snapshot)
	if c.CycleLimit > 0 {
		rt.eng.SetCycleLimit(c.CycleLimit)
	}
	if c.Deadline > 0 {
		rt.eng.SetDeadline(c.Deadline)
	}
	if c.Retry != nil {
		pol, err := retryDefaults(*c.Retry)
		if err != nil {
			return err
		}
		rt.installRetry(pol)
	}
	if c.Faults != nil {
		if err := rt.applyFaults(c.Faults); err != nil {
			return err
		}
	}
	if c.Adapt != nil {
		rt.installAdaptSim(c.Adapt)
	}
	return nil
}

// captureHook, when set, observes every Runtime NewRuntime constructs.
// Tooling that drives applications through a uniform interface hiding
// the Runtime (the apps registry) uses it to recover the runtime for
// post-run inspection — see CaptureRuntime.
var captureHook func(*Runtime)

// CaptureRuntime registers f to observe every subsequently constructed
// Runtime and returns a restore function reinstating the previous hook.
// The hook is package-global and not synchronized: it is for
// single-threaded drivers (the trace exporter), not for library use.
func CaptureRuntime(f func(*Runtime)) (restore func()) {
	prev := captureHook
	captureHook = f
	return func() { captureHook = prev }
}

// nativeUnsupported rejects configuration options whose semantics
// require the simulated machine itself. Faults, Retry, and Deadline
// are NOT in this list: they run natively with cycle quantities read
// as wall-clock nanoseconds (see newNativeRuntime).
func nativeUnsupported(c Config) error {
	switch {
	case c.Machine != nil:
		return &UnsupportedOnNativeError{Option: "Machine"}
	case c.CycleLimit > 0:
		return &UnsupportedOnNativeError{Option: "CycleLimit"}
	case c.Quantum > 0:
		return &UnsupportedOnNativeError{Option: "Quantum"}
	case c.Adapt != nil:
		return &UnsupportedOnNativeError{Option: "Adapt"}
	}
	return nil
}

// defaultNativeNoProgressNS is the no-progress watchdog window armed on
// native runs that inject faults or retries: if no task completes for
// this long while work is outstanding, Run stops with a
// *NoProgressError instead of hanging. Two seconds of zero completions
// on a real machine is orders of magnitude beyond any legitimate stall
// the fault vocabulary can produce (stalls and backoffs are bounded in
// the low milliseconds).
const defaultNativeNoProgressNS = 2_000_000_000

// newNativeRuntime builds a runtime executing on the goroutine backend.
// The DASH machine description supplies only the address-space geometry
// (page size, cluster topology) used for object homes and victim order;
// latencies and caches are unused. Config.Seed is accepted and ignored —
// native runs are inherently timing-dependent.
//
// The robustness options map onto wall-clock time: every quantity a
// fault plan, retry policy, or deadline expresses in simulated cycles
// is read as nanoseconds. DegradeMemory events are ignored (the memory
// system is the host's). When faults or retries are armed, a default
// no-progress watchdog guards against hangs.
func newNativeRuntime(c Config, mc machine.Config, pol core.Policy) (*Runtime, error) {
	var retry RetryPolicy // zero: retries disabled
	if c.Retry != nil {
		var err error
		if retry, err = retryDefaults(*c.Retry); err != nil {
			return nil, err
		}
	}
	var plan *fault.Plan
	if c.Faults != nil {
		if err := c.Faults.plan.Validate(mc.Processors, mc.Clusters()); err != nil {
			return nil, fmt.Errorf("cool: invalid Config.Faults: %w", err)
		}
		plan = &c.Faults.plan
	}
	noProgress := int64(0)
	if c.Faults != nil || c.Retry != nil {
		noProgress = defaultNativeNoProgressNS
	}
	np := mc.Processors
	if c.MaxProcessors > np {
		np = c.MaxProcessors // bounds validated by native.New
	}
	rt := &Runtime{cfg: mc, pub: c, pol: pol, backend: BackendNative}
	rt.space = memsim.New(mc)
	rt.mon = perfmon.New(np)
	nat, err := native.New(native.Config{
		Procs:       mc.Processors,
		ClusterSize: mc.ClusterSize,
		PageSize:    int64(mc.PageSize),
		Pol:         pol,
		Home:        rt.Home,
		Mon:         rt.mon,
		// One adapter shared by every spawn: the user's func value rides
		// through the task record as the payload (an allocation-free
		// interface conversion for func types), replacing the per-spawn
		// wrapper closure the facade used to allocate.
		Invoke: func(nc *native.Ctx, p any) {
			p.(func(*Ctx))(rt.nativeCtx(nc))
		},
		// InvokeN is Invoke for SpawnN batches: the shared payload is the
		// user's fn(ctx, i) func value, applied to the member index.
		InvokeN: func(nc *native.Ctx, p any, i int) {
			p.(func(*Ctx, int))(rt.nativeCtx(nc), i)
		},
		TraceCapacity: c.TraceCapacity,
		Faults:        plan,
		Retry:         retry,
		DeadlineNS:    c.Deadline,
		NoProgressNS:  noProgress,
		MaxProcs:      c.MaxProcessors,
		Shed:          c.Shed,
	})
	if err != nil {
		return nil, err
	}
	rt.nat = nat
	return rt, nil
}

// nativeCtx returns the facade context of the native task running in nc.
// It lives in the pooled task record's facade slot: made by the first
// task that runs in the record and reused in place by every later one,
// so running a task allocates nothing. Each record has its own, so tasks
// nested on one worker by a helping WaitFor never share one.
func (rt *Runtime) nativeCtx(nc *native.Ctx) *Ctx {
	if c, ok := nc.Facade().(*Ctx); ok {
		return c
	}
	return rt.newNativeCtx(nc)
}

// newNativeCtx is nativeCtx's once-per-record allocation, kept out of
// line so the per-task adapters inline only the reuse path.
//
//go:noinline
func (rt *Runtime) newNativeCtx(nc *native.Ctx) *Ctx {
	c := &Ctx{nc: nc, rt: rt}
	nc.SetFacade(c)
	return c
}

// Backend returns the execution engine this runtime uses.
func (rt *Runtime) Backend() Backend { return rt.backend }

// Processors returns the number of simulated processors.
func (rt *Runtime) Processors() int { return rt.cfg.Processors }

// Clusters returns the number of clusters (memory modules).
func (rt *Runtime) Clusters() int { return rt.cfg.Clusters() }

// Sched returns the scheduling policy the runtime was constructed with.
func (rt *Runtime) Sched() SchedPolicy { return rt.pub.Sched }

// MachineConfig returns a copy of the simulated machine description.
func (rt *Runtime) MachineConfig() machine.Config { return rt.cfg }

// Run executes main as the program's root task on processor 0 and
// simulates until every task has completed. Failures come back as typed
// errors: *TaskPanicError when a task panicked, *DeadlockError (with
// the wait-for graph) when tasks blocked forever, *NoProgressError when
// Config.CycleLimit was exceeded, *TaskAbortError when a transient
// launch failure exhausted its retry budget, and *DeadlineExceededError
// when Config.Deadline was exceeded. Run never panics on task or
// configuration faults, and may be called only once.
func (rt *Runtime) Run(main func(*Ctx)) (err error) {
	if rt.ran {
		return fmt.Errorf("cool: Runtime.Run called twice")
	}
	rt.ran = true
	if rt.setupErr != nil {
		return rt.setupErr
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cool: runtime panic: %v", r)
		}
	}()
	if rt.backend == BackendNative {
		return rt.wrapRunError(rt.nat.Run(func(nc *native.Ctx) {
			main(&Ctx{nc: nc, rt: rt})
		}))
	}
	td := &core.TaskDesc{Class: core.ClassProcessor, Server: 0, Slot: -1}
	t := rt.eng.NewTask("main", 0, func(sc *sim.Ctx) {
		main(&Ctx{sc: sc, rt: rt})
		rt.sched.TraceDone(sc)
	})
	t.Data = td
	td.T = t
	rt.sched.Enqueue(td, 0)
	return rt.wrapRunError(rt.eng.Run())
}

// ElapsedCycles returns the parallel execution time after Run: the
// largest processor clock in simulated cycles on the simulator backend,
// wall-clock nanoseconds on the native backend.
func (rt *Runtime) ElapsedCycles() int64 {
	if rt.backend == BackendNative {
		return rt.nat.ElapsedNanos()
	}
	return rt.eng.MaxClock()
}

// SetSplits returns how often a task-affinity set was enqueued or stolen
// away from its recorded home — an invariant violation under the default
// whole-set-stealing policy, where it must stay zero. Splits are only
// legitimate when set stealing is disabled (Sched.NoSetStealing) and the
// scheduler falls back to taking individual set members.
func (rt *Runtime) SetSplits() int64 {
	if rt.backend == BackendNative {
		return rt.nat.SetSplits()
	}
	return rt.sched.SetSplits()
}
