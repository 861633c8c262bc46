// Package harness is what the case-study applications share: the shape
// of an application's declaration (Program), and the one function that
// builds, runs and checks a program (Program.Run). The paper presents every case
// study as one program whose versions differ only in hints, object
// distribution and a runtime flag, so a version is a row of data here
// and the application packages hold nothing but what is theirs: the
// workload parameters, the layout, the parallel and serial bodies, and
// the correctness evidence. The registry (package apps) re-exports all
// of it by name; application tests call Program.Run directly.
package harness

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/machine"
)

// Serial names the single-task serial reference wherever a variant name
// is expected: Base's layout on one processor of cfg's machine, running
// Instance.Serial with no task creation or synchronization cost — the
// speedup denominator.
const Serial = "serial"

// Variant is one program version: a row of the paper's figure legends.
type Variant struct {
	Name string
	// IgnoreHints and ClusterStealingOnly are the version's scheduling
	// knobs. They take effect when a runtime is constructed and cannot be
	// applied to a built one, so Run refuses a caller's runtime that was
	// built without them rather than run a different version silently.
	IgnoreHints         bool
	ClusterStealingOnly bool
	// Distribute spreads the workload's objects across the processors'
	// memories at build time; otherwise they all live in processor 0's.
	Distribute bool
}

// Program is everything the harnesses know about one application.
type Program struct {
	Name string
	Rows []Variant // Base first; application packages index it with their Variant constants
	// Served indexes the version a long-lived deployment runs: the full
	// affinity one, which carries no construction-time knob and so works
	// on a warm runtime.
	Served int
	// Sizes maps preset names to the size integer Sized takes: "small",
	// "medium" and "large" are the serving catalog's (small ones let a
	// test stream hundreds of jobs through warm native runtimes in
	// seconds), "smoke" is the differential harness's CI workload. Presets respect the app's divisibility rules.
	Sizes map[string]int
	// ScheduleTokens are the Verify tokens whose values legitimately
	// depend on execution order and so may differ between schedules at
	// P>1 (or once faults perturb a schedule): the router's cost depends
	// on the order wires observe each other's congestion — its
	// consistency flag still must match — and the linear-algebra
	// residuals shift at rounding level (~1e-15) with FP accumulation
	// order; both Cholesky apps gate real corruption internally against
	// the serial reference at 1e-9. Every other token must match exactly,
	// and on the simulator, or at P=1 where both backends execute the
	// identical serial order, so must these.
	ScheduleTokens map[string]bool
	// Sized maps the registry's size integer (grid dimension, wires per
	// region, bodies, matrix dimension; 0 = the default workload) to the
	// application's Params.
	Sized func(size int) Workload
}

// Workload is an application's Params.
type Workload interface {
	// Build validates the parameters and allocates the workload on rt,
	// laid out as version v (an index into Rows) asks. prep, when
	// non-nil, is a handle Preparer.Prepare returned for equal
	// parameters; a foreign or mismatched one is an error.
	Build(rt *cool.Runtime, v int, prep any) (Instance, error)
}

// Preparer is implemented by workloads with a separable analyze phase:
// state that depends only on the parameters, not on any runtime, is
// read-only across runs and so can back any number of them on either
// backend (pancho's symbolic factorization, panel partition and each
// factor entry's stored position). A handle that is a Releaser goes
// back through Release once no run can read it, and a later Prepare of
// equal parameters refills it.
type Preparer interface {
	Prepare() (any, error)
}

// Instance is one workload laid out on one runtime.
type Instance interface {
	Main(ctx *cool.Ctx)   // the parallel program's root task
	Serial(ctx *cool.Ctx) // the identical computation in the root task alone
	// Finish validates the finished run and returns its evidence.
	Finish() (Evidence, error)
}

// Releaser is implemented by instances that keep per-job host scratch
// in a Stash, and by prepared handles whose storage is recycled.
// Program.Run calls an instance's Release once Finish has returned the
// job's evidence, handing the scratch to the next job of equal
// parameters; the instance must not be used after it. A caller that
// drives an Instance itself may keep it and never call Release.
type Releaser interface {
	Release()
}

// Evidence is an application's typed correctness evidence. Verify
// renders it as key=value tokens; the serial reference reports only the
// tokens that exist without tasks (no panel, wire or block counts).
type Evidence interface {
	Verify(serial bool) string
}

// Checksum is the evidence of the applications whose whole result folds
// into one bitwise-comparable digest.
type Checksum float64

func (c Checksum) Verify(bool) string { return fmt.Sprintf("checksum=%.6g", float64(c)) }

// Result is the uniform view of one application run.
type Result struct {
	Cycles   int64
	Report   cool.Report
	Verify   string   // human-readable correctness evidence
	Evidence Evidence // the same, typed (the application package's Result)
}

// VariantNames lists the program versions in order.
func (p *Program) VariantNames() []string {
	names := make([]string, len(p.Rows))
	for i, v := range p.Rows {
		names[i] = v.Name
	}
	return names
}

// Run executes one version of p (or Serial) on workload w: apply the
// version's knobs to cfg and take a runtime for it from the idle
// runtimes (see warmRuntime) — or, when rt is non-nil, take the
// caller's runtime, which must not have run yet (fresh from NewRuntime
// or Reset), and ignore cfg — then build, run the main or the serial
// body, and finish.
// Every failure comes back labelled with the program and version it
// belongs to.
func (p *Program) Run(variant string, w Workload, cfg cool.Config, rt *cool.Runtime, prep any) (Result, error) {
	serial := variant == Serial
	v, row := 0, Variant{}
	if serial {
		cfg.Processors = 1
	} else {
		v = slices.IndexFunc(p.Rows, func(r Variant) bool { return r.Name == variant })
		if v < 0 {
			return Result{}, fmt.Errorf("apps: %s has no variant %q (have %v)", p.Name, variant, p.VariantNames())
		}
		row = p.Rows[v]
	}
	fail := func(err error) (Result, error) {
		if serial || rt == nil {
			return Result{}, fmt.Errorf("%s/%s: %w", p.Name, variant, err)
		}
		return Result{}, fmt.Errorf("%s/%s P=%d: %w", p.Name, variant, rt.Processors(), err)
	}
	if rt == nil {
		cfg.Sched.IgnoreHints = cfg.Sched.IgnoreHints || row.IgnoreHints
		cfg.Sched.ClusterStealingOnly = cfg.Sched.ClusterStealingOnly || row.ClusterStealingOnly
		k := keyOf(cfg)
		var err error
		if rt, err = warmRuntime(k, cfg); err != nil {
			return fail(err)
		}
		defer putIdle(k, rt)
	} else if s := rt.Sched(); row.IgnoreHints && !s.IgnoreHints || row.ClusterStealingOnly && !s.ClusterStealingOnly {
		return fail(errors.New("the variant sets a scheduling knob when the runtime is constructed and this runtime was built without it: use RunCfg, or build the runtime with the knob"))
	}
	inst, err := w.Build(rt, v, prep)
	if err != nil {
		return fail(err)
	}
	body := inst.Main
	if serial {
		body = inst.Serial
	}
	if err := rt.Run(body); err != nil {
		return fail(err)
	}
	ev, err := inst.Finish()
	if err != nil {
		return fail(err)
	}
	if r, ok := inst.(Releaser); ok {
		r.Release()
	}
	rep := rt.Report()
	return Result{Cycles: rep.Cycles, Report: rep, Verify: ev.Verify(serial), Evidence: ev}, nil
}

// idle holds the runtimes Program.Run built for itself while no run
// holds them, oldest first: a later run with an equal resolved
// configuration resets the most recent one instead of building a
// machine. Reset makes a runtime equal to a new one with the same
// Config, so every simulated count and every Verify token is the same
// either way. A runtime stays here until maxIdle newer ones push it
// out, not until a garbage collection, so whether a run builds a
// machine depends only on the runs before it. (A runtime's job arrays
// are still the collector's to take; see Runtime.Reset.)
var idle struct {
	sync.Mutex
	rts []idleRuntime
}

// maxIdle bounds idle. The catalog's simulated figures cycle through
// about eight configurations (P=1, 8 and 32, each with the scheduling
// knobs its versions set); a cycle through more keys than the bound
// would build a machine on every run, so the bound leaves room above
// that. The fault plan is keyed by pointer, so a caller that builds a
// new plan per run only ever pushes the oldest out.
const maxIdle = 16

type idleRuntime struct {
	key poolKey
	rt  *cool.Runtime
}

// poolKey is a resolved configuration: the Config with its machine
// description by value, so runs that describe one machine through
// different pointers share their runtimes.
type poolKey struct {
	cfg cool.Config
	mc  machine.Config
}

// keyOf resolves cfg to its poolKey.
func keyOf(cfg cool.Config) poolKey {
	k := poolKey{cfg: cfg}
	if cfg.Machine != nil {
		k.cfg.Machine, k.mc = nil, *cfg.Machine
	}
	return k
}

// putIdle returns rt, built for k, to the end of idle, dropping the
// oldest runtime once more than maxIdle wait.
func putIdle(k poolKey, rt *cool.Runtime) {
	idle.Lock()
	defer idle.Unlock()
	idle.rts = append(idle.rts, idleRuntime{k, rt})
	if len(idle.rts) > maxIdle {
		idle.rts = slices.Delete(idle.rts, 0, 1)
	}
}

// warmRuntime returns a runtime for k that has not run: the most recent
// idle one built for k, reset, or a new one. A runtime whose Reset
// refuses (a native run that failed) is dropped.
func warmRuntime(k poolKey, cfg cool.Config) (*cool.Runtime, error) {
	idle.Lock()
	var rt *cool.Runtime
	for i := len(idle.rts) - 1; i >= 0; i-- {
		if idle.rts[i].key == k {
			rt = idle.rts[i].rt
			idle.rts = slices.Delete(idle.rts, i, i+1)
			break
		}
	}
	idle.Unlock()
	if rt != nil && rt.Reset() == nil {
		return rt, nil
	}
	return cool.NewRuntime(cfg)
}
