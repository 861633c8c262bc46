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

	"github.com/coolrts/cool/internal/cache"
	"github.com/coolrts/cool/internal/core"
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
	// counters and cycle charges are not modelled. Deadline and typed
	// task panics work natively, with the deadline read as wall-clock
	// nanoseconds. Machine, which describes the simulated machine, and
	// the simulator-only fault plans (Faults) are rejected with
	// *UnsupportedOnNativeError.
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
	// Sched selects the scheduling policy.
	Sched SchedPolicy
	// TraceCapacity, when positive, records up to that many scheduler
	// events (see Runtime.TraceEvents, TraceDump, TraceTimeline).
	TraceCapacity int
	// Machine, when non-nil, replaces the DASH machine of Processors
	// processors with a full machine description (processor count,
	// cluster size, interleaving quantum, latencies, cache geometry), and
	// Processors is ignored.
	Machine *machine.Config
	// Faults, when non-nil, is the deterministic fault-injection plan
	// applied to the run (see FaultPlan). Invalid plans are rejected by
	// NewRuntime. Simulator only: the native backend rejects it with
	// *UnsupportedOnNativeError.
	Faults *FaultPlan
	// Deadline, when positive, bounds the run to that many simulated
	// cycles — wall-clock nanoseconds on the native backend. An
	// over-budget run stops and returns a *DeadlineExceededError
	// carrying a progress snapshot (per-server queue depths, and on the
	// simulator the blocked tasks and what they wait on).
	Deadline int64
	// Backend selects the execution engine (default: the simulator).
	Backend Backend
}

// Runtime is one simulated COOL program execution environment. Allocate
// objects, then call Run exactly once.
type Runtime struct {
	cfg      machine.Config
	pub      Config // the public config this runtime was built from; Reset re-arms from it
	backend  Backend
	eng      *sim.Engine // sim backend only
	space    *memsim.Space
	caches   *cache.System   // sim backend only
	sched    *core.Scheduler // sim backend only
	nat      *native.Runtime // native backend only
	mon      *perfmon.Monitor
	ran      bool
	taskFree []*simTask // recycled simulated task records (see ctx.go)

	// spaceMu serializes the writes to space (allocation, migration,
	// Reset), which native tasks may issue concurrently, and the run's
	// arrays. Home lookups read the space without it.
	spaceMu sync.Mutex

	// arrays is what the allocation API keeps of this run's arrays and
	// monitors and reuses of earlier runs' (nil until the run's first
	// allocation); Reset puts it on the shelf through slot. See warm.go.
	arrays *warmState
	slot   *warmSlot

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
	}
	var mc machine.Config
	if c.Machine != nil {
		mc = *c.Machine
	} else {
		if c.Processors <= 0 {
			return nil, fmt.Errorf("cool: Config.Processors must be positive")
		}
		mc = machine.DASH(c.Processors)
	}
	if c.Sched.QueueArraySize < 0 {
		return nil, fmt.Errorf("cool: Config.Sched.QueueArraySize must not be negative")
	}
	if c.TraceCapacity < 0 {
		return nil, fmt.Errorf("cool: Config.TraceCapacity must not be negative")
	}
	if c.Deadline < 0 {
		return nil, fmt.Errorf("cool: Config.Deadline must not be negative")
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
	rt := &Runtime{cfg: mc, pub: c}
	rt.eng = sim.New(mc.Processors, mc.Quantum)
	rt.space = memsim.New(mc)
	rt.mon = perfmon.New(mc.Processors)
	rt.caches = cache.New(mc, rt.space, rt.mon)
	rt.sched = core.NewScheduler(mc, pol, rt.eng, rt.space, rt.mon)
	if c.TraceCapacity > 0 {
		rt.enableTracing(c.TraceCapacity)
	}
	rt.eng.SetDeadline(c.Deadline)
	if err := rt.armSim(); err != nil {
		return nil, err
	}
	if captureHook != nil {
		captureHook(rt)
	}
	return rt, nil
}

// armSim arms a simulated run's fault plan, read from the stored
// configuration: NewRuntime calls it on the machine it just built and
// Reset on the one it has just reset, so the plan's events are queued on
// a fresh clock each time.
func (rt *Runtime) armSim() error {
	if rt.pub.Faults == nil {
		return nil
	}
	return rt.applyFaults(rt.pub.Faults)
}

// captureHook, when set, observes every Runtime NewRuntime constructs
// and every one Reset re-arms. Tooling that drives applications through
// a uniform interface hiding the Runtime (the apps registry) uses it to
// recover the runtime for post-run inspection — see CaptureRuntime.
var captureHook func(*Runtime)

// CaptureRuntime registers f to observe every Runtime subsequently
// constructed by NewRuntime or re-armed by a successful Reset, and
// returns a restore function reinstating the previous hook. The apps
// registry reuses its runtimes through Reset, so a captured runtime is
// the one the next run took, fresh or warm; it stays as that run left
// it until a later registry run with an equal configuration takes it
// again. The hook is package-global and not synchronized: it is for
// single-threaded drivers (the trace exporter), not for library use.
func CaptureRuntime(f func(*Runtime)) (restore func()) {
	prev := captureHook
	captureHook = f
	return func() { captureHook = prev }
}

// nativeUnsupported rejects the simulated machine's description and the
// fault plans that only the simulator runs. Deadline is not in this
// list: it runs natively with cycles read as wall-clock nanoseconds.
func nativeUnsupported(c Config) error {
	switch {
	case c.Machine != nil:
		return &UnsupportedOnNativeError{Option: "Machine"}
	case c.Faults != nil:
		return &UnsupportedOnNativeError{Option: "Faults"}
	}
	return nil
}

// newNativeRuntime builds a runtime executing on the goroutine backend.
// The DASH machine description supplies only the address-space geometry
// (page size, cluster topology) used for object homes and victim order;
// latencies and caches are unused. Config.Deadline is read as
// wall-clock nanoseconds.
func newNativeRuntime(c Config, mc machine.Config, pol core.Policy) (*Runtime, error) {
	rt := &Runtime{cfg: mc, pub: c, backend: BackendNative}
	rt.space = memsim.New(mc)
	rt.mon = perfmon.New(mc.Processors)
	nat, err := native.New(native.Config{
		Procs:       mc.Processors,
		ClusterSize: mc.ClusterSize,
		PageSize:    int64(mc.PageSize),
		Pol:         pol,
		Home:        rt.Home,
		Mon:         rt.mon,
		// Each task record's facade context, made with the record.
		Facade: func(nc *native.Ctx) any { return &Ctx{nc: nc, rt: rt} },
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
		DeadlineNS:    c.Deadline,
	})
	if err != nil {
		return nil, err
	}
	rt.nat = nat
	return rt, nil
}

// nativeCtx returns the facade context of the native task running in nc.
// It lives in the pooled task record's facade slot: made with the record
// (native Config.Facade) and reused in place by every task that runs in
// it, so running a task allocates nothing. Each record has its own, so
// tasks nested on one worker by a helping WaitFor never share one.
func (rt *Runtime) nativeCtx(nc *native.Ctx) *Ctx { return nc.Facade().(*Ctx) }

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
// the wait-for graph) when tasks blocked forever, and
// *DeadlineExceededError when Config.Deadline was exceeded. Run never
// panics on task or configuration faults, and may be called only once.
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
		return rt.nat.Run(func(nc *native.Ctx) {
			main(&Ctx{nc: nc, rt: rt})
		})
	}
	st := rt.newSimTask()
	st.fn = main
	st.td.Class, st.td.Server, st.td.Slot = core.ClassProcessor, 0, -1
	rt.startSimTask(st, "main", 0)
	return rt.eng.Run()
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
