// Package apps provides a uniform registry over the SPLASH case-study
// applications so drivers and benchmarks can run any app/variant/size by
// name.
package apps

import (
	"fmt"
	"strings"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps/barneshut"
	"github.com/coolrts/cool/internal/apps/blockcho"
	"github.com/coolrts/cool/internal/apps/gauss"
	"github.com/coolrts/cool/internal/apps/locusroute"
	"github.com/coolrts/cool/internal/apps/ocean"
	"github.com/coolrts/cool/internal/apps/pancho"
	"github.com/coolrts/cool/internal/apps/phaseflip"
)

// Result is the registry's uniform view of one application run.
type Result struct {
	Cycles int64
	Report cool.Report
	Verify string // human-readable correctness evidence
}

// ScheduleTokens lists, per app, Verify tokens whose values legitimately
// depend on execution order and so may differ between schedules at P>1
// (or once faults perturb a schedule): the router's cost depends on the
// order wires observe each other's congestion — its consistency flag
// still must match — and the linear-algebra residuals shift at rounding
// level (~1e-15) with FP accumulation order; both Cholesky apps gate
// real corruption internally against the serial reference at 1e-9.
// Every other token must match exactly, and on the simulator, or at P=1
// where both backends execute the identical serial order, so must these.
var ScheduleTokens = map[string]map[string]bool{
	"locusroute": {"cost": true},
	"pancho":     {"residual": true, "maxdiff": true},
	"blockcho":   {"maxdiff": true},
}

// DiffVerify compares two key=value Verify strings token for token,
// skipping ignored keys (nil: compare everything); it describes the
// first difference, or returns "" when the results are differentially
// identical.
func DiffVerify(want, got string, ignore map[string]bool) string {
	a, b := strings.Fields(want), strings.Fields(got)
	if len(a) != len(b) {
		return fmt.Sprintf("verify shape differs: %q vs %q", want, got)
	}
	for i := range a {
		key, _, _ := strings.Cut(a[i], "=")
		if ignore[key] {
			continue
		}
		if a[i] != b[i] {
			return fmt.Sprintf("%s: want %q, got %q", key, a[i], b[i])
		}
	}
	return ""
}

// App is one registered application.
type App struct {
	Name     string
	Variants []string // program versions, Base first
	// Run executes the app with the named variant; size 0 selects the
	// app's default workload (the meaning of size is app-specific: grid
	// dimension, wires per region, bodies, matrix dimension).
	Run func(procs int, variant string, size int) (Result, error)
	// RunCfg executes the app with the named variant under an explicit
	// base runtime configuration — the chaos driver injects fault plans,
	// retry policies, and deadlines here, and the differential harness
	// selects the execution backend. cfg.Processors selects the machine
	// size; the variant's scheduling knobs are applied on top.
	RunCfg func(cfg cool.Config, variant string, size int) (Result, error)
	// RunOn executes the app on an existing runtime that has not run
	// yet — fresh from NewRuntime or Runtime.Reset. This is the serving
	// layer's warm-reuse entry point: coolserve keeps runtimes hot and
	// replays jobs through here instead of rebuilding per job.
	// Config-level variant knobs (IgnoreHints, cluster-stealing) cannot
	// be applied to an already-built runtime and are skipped.
	RunOn func(rt *cool.Runtime, variant string, size int) (Result, error)
	// Prepare runs the app's analyze phase — reusable workload state
	// that depends only on the size, not on any runtime (pancho's
	// symbolic factorization, panel partition, and reference factor).
	// Nil when the app has no separable analyze phase. The handle is
	// read-only across runs and safe to reuse on any backend.
	Prepare func(size int) (any, error)
	// RunOnPrepared is RunOn reusing a handle Prepare built for the
	// same size. Nil exactly when Prepare is nil.
	RunOnPrepared func(rt *cool.Runtime, variant string, size int, prep any) (Result, error)
	// RunSerial executes the single-task serial reference.
	RunSerial func(size int) (Result, error)
}

// appSpec is everything app-specific the registry needs: the variant
// list, the size→params mapping, the two entry points, and how each raw
// result becomes the uniform Result. newApp derives the rest — variant
// name resolution, Run/RunCfg/RunSerial plumbing — identically for
// every app.
type appSpec[V fmt.Stringer, P, R any] struct {
	name      string
	variants  []V
	params    func(size int) P
	runWith   func(cfg cool.Config, v V, p P) (R, error)
	runOn     func(rt *cool.Runtime, v V, p P) (R, error)
	runSerial func(p P) (R, error)
	result    func(R) Result // parallel runs
	serial    func(R) Result // serial reference (often fewer Verify tokens)
	// Optional analyze-phase split; both set or both nil.
	prepare   func(p P) (any, error)
	runOnPrep func(rt *cool.Runtime, v V, p P, prep any) (R, error)
}

// newApp builds the registry entry from a spec.
func newApp[V fmt.Stringer, P, R any](s appSpec[V, P, R]) App {
	names := make([]string, len(s.variants))
	for i, v := range s.variants {
		names[i] = v.String()
	}
	runCfg := func(cfg cool.Config, variant string, size int) (Result, error) {
		i, err := variantIndex(s.name, names, variant)
		if err != nil {
			return Result{}, err
		}
		r, err := s.runWith(cfg, s.variants[i], s.params(size))
		if err != nil {
			return Result{}, err
		}
		return s.result(r), nil
	}
	app := App{
		Name:     s.name,
		Variants: names,
		Run: func(procs int, variant string, size int) (Result, error) {
			return runCfg(cool.Config{Processors: procs}, variant, size)
		},
		RunCfg: runCfg,
		RunOn: func(rt *cool.Runtime, variant string, size int) (Result, error) {
			i, err := variantIndex(s.name, names, variant)
			if err != nil {
				return Result{}, err
			}
			r, err := s.runOn(rt, s.variants[i], s.params(size))
			if err != nil {
				return Result{}, err
			}
			return s.result(r), nil
		},
		RunSerial: func(size int) (Result, error) {
			r, err := s.runSerial(s.params(size))
			if err != nil {
				return Result{}, err
			}
			return s.serial(r), nil
		},
	}
	if s.prepare != nil {
		app.Prepare = func(size int) (any, error) {
			return s.prepare(s.params(size))
		}
		app.RunOnPrepared = func(rt *cool.Runtime, variant string, size int, prep any) (Result, error) {
			i, err := variantIndex(s.name, names, variant)
			if err != nil {
				return Result{}, err
			}
			r, err := s.runOnPrep(rt, s.variants[i], s.params(size), prep)
			if err != nil {
				return Result{}, err
			}
			return s.result(r), nil
		}
	}
	return app
}

var registry = []App{panchoApp(), oceanApp(), locusApp(), blockchoApp(), barneshutApp(), gaussApp(), phaseflipApp()}

// Names lists registered applications in registration order.
func Names() []string {
	out := make([]string, len(registry))
	for i, a := range registry {
		out[i] = a.Name
	}
	return out
}

// Lookup finds an application by name.
func Lookup(name string) (App, bool) {
	for _, a := range registry {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}

// variantIndex resolves a variant name against a list, or errors.
func variantIndex(app string, names []string, want string) (int, error) {
	for i, n := range names {
		if n == want {
			return i, nil
		}
	}
	return 0, fmt.Errorf("apps: %s has no variant %q (have %v)", app, names, want)
}

func panchoApp() App {
	return newApp(appSpec[pancho.Variant, pancho.Params, pancho.Result]{
		name:     "pancho",
		variants: pancho.Variants,
		params: func(size int) pancho.Params {
			p := pancho.DefaultParams()
			if size > 0 {
				p.Grid = size
			}
			return p
		},
		runWith:   pancho.RunWith,
		runOn:     pancho.RunOn,
		runSerial: pancho.RunSerial,
		prepare: func(p pancho.Params) (any, error) {
			return pancho.Prepare(p)
		},
		runOnPrep: func(rt *cool.Runtime, v pancho.Variant, p pancho.Params, prep any) (pancho.Result, error) {
			pp, ok := prep.(*pancho.Prep)
			if !ok {
				return pancho.Result{}, fmt.Errorf("pancho: prepared handle has type %T, want *pancho.Prep", prep)
			}
			return pancho.RunOnPrep(rt, v, p, pp)
		},
		result: func(r pancho.Result) Result {
			return Result{r.Cycles, r.Report,
				fmt.Sprintf("residual=%.2e maxdiff=%.2e panels=%d", r.Residual, r.MaxDiff, r.Panels)}
		},
		serial: func(r pancho.Result) Result {
			return Result{r.Cycles, r.Report, fmt.Sprintf("residual=%.2e", r.Residual)}
		},
	})
}

func oceanApp() App {
	verify := func(r ocean.Result) Result {
		return Result{r.Cycles, r.Report, fmt.Sprintf("checksum=%.6g", r.Checksum)}
	}
	return newApp(appSpec[ocean.Variant, ocean.Params, ocean.Result]{
		name:     "ocean",
		variants: ocean.Variants,
		params: func(size int) ocean.Params {
			p := ocean.DefaultParams()
			if size > 0 {
				p.N = size
			}
			return p
		},
		runWith:   ocean.RunWith,
		runOn:     ocean.RunOn,
		runSerial: ocean.RunSerial,
		result:    verify,
		serial:    verify,
	})
}

func locusApp() App {
	return newApp(appSpec[locusroute.Variant, locusroute.Params, locusroute.Result]{
		name:     "locusroute",
		variants: locusroute.Variants,
		params: func(size int) locusroute.Params {
			p := locusroute.DefaultParams()
			if size > 0 {
				p.WiresPer = size
			}
			return p
		},
		runWith:   locusroute.RunWith,
		runOn:     locusroute.RunOn,
		runSerial: locusroute.RunSerial,
		result: func(r locusroute.Result) Result {
			return Result{r.Cycles, r.Report,
				fmt.Sprintf("consistent=%v cost=%d wires=%d", r.Consistent, r.TotalCost, r.Wires)}
		},
		serial: func(r locusroute.Result) Result {
			return Result{r.Cycles, r.Report,
				fmt.Sprintf("consistent=%v cost=%d", r.Consistent, r.TotalCost)}
		},
	})
}

func blockchoApp() App {
	return newApp(appSpec[blockcho.Variant, blockcho.Params, blockcho.Result]{
		name:     "blockcho",
		variants: blockcho.Variants,
		params: func(size int) blockcho.Params {
			p := blockcho.DefaultParams()
			if size > 0 {
				p.N = size
			}
			return p
		},
		runWith:   blockcho.RunWith,
		runOn:     blockcho.RunOn,
		runSerial: blockcho.RunSerial,
		result: func(r blockcho.Result) Result {
			return Result{r.Cycles, r.Report,
				fmt.Sprintf("maxdiff=%.2e blocks=%d", r.MaxDiff, r.Blocks)}
		},
		serial: func(r blockcho.Result) Result {
			return Result{r.Cycles, r.Report, fmt.Sprintf("maxdiff=%.2e", r.MaxDiff)}
		},
	})
}

func barneshutApp() App {
	verify := func(r barneshut.Result) Result {
		return Result{r.Cycles, r.Report, fmt.Sprintf("checksum=%.6g", r.Checksum)}
	}
	return newApp(appSpec[barneshut.Variant, barneshut.Params, barneshut.Result]{
		name:     "barneshut",
		variants: barneshut.Variants,
		params: func(size int) barneshut.Params {
			p := barneshut.DefaultParams()
			if size > 0 {
				p.Bodies = size
			}
			return p
		},
		runWith:   barneshut.RunWith,
		runOn:     barneshut.RunOn,
		runSerial: barneshut.RunSerial,
		result:    verify,
		serial:    verify,
	})
}

func phaseflipApp() App {
	verify := func(r phaseflip.Result) Result {
		return Result{r.Cycles, r.Report, fmt.Sprintf("checksum=%.6g", r.Checksum)}
	}
	return newApp(appSpec[phaseflip.Variant, phaseflip.Params, phaseflip.Result]{
		name:     "phaseflip",
		variants: phaseflip.Variants,
		params: func(size int) phaseflip.Params {
			p := phaseflip.DefaultParams()
			if size > 0 {
				p.Steps = size
				p.Wave = 0 // re-derived from Steps by normalize
			}
			return p
		},
		runWith:   phaseflip.RunWith,
		runOn:     phaseflip.RunOn,
		runSerial: phaseflip.RunSerial,
		result:    verify,
		serial:    verify,
	})
}

func gaussApp() App {
	verify := func(r gauss.Result) Result {
		return Result{r.Cycles, r.Report, fmt.Sprintf("checksum=%.6g", r.Checksum)}
	}
	return newApp(appSpec[gauss.Variant, gauss.Params, gauss.Result]{
		name:     "gauss",
		variants: gauss.Variants,
		params: func(size int) gauss.Params {
			p := gauss.DefaultParams()
			if size > 0 {
				p.N = size
			}
			return p
		},
		runWith:   gauss.RunWith,
		runOn:     gauss.RunOn,
		runSerial: gauss.RunSerial,
		result:    verify,
		serial:    verify,
	})
}
