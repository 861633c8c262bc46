// Package apps provides a uniform registry over the SPLASH case-study
// applications so drivers and benchmarks can run any app/variant/size by
// name. Each application package declares itself once (its
// harness.Program); everything here is a thin call of its Run method.
package apps

import (
	"fmt"
	"strings"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps/barneshut"
	"github.com/coolrts/cool/internal/apps/blockcho"
	"github.com/coolrts/cool/internal/apps/gauss"
	"github.com/coolrts/cool/internal/apps/harness"
	"github.com/coolrts/cool/internal/apps/locusroute"
	"github.com/coolrts/cool/internal/apps/ocean"
	"github.com/coolrts/cool/internal/apps/pancho"
	"github.com/coolrts/cool/internal/apps/phaseflip"
)

// registry holds one entry per application; adding an application is its
// package plus a line here.
var registry = func() []App {
	var out []App
	for _, p := range []*harness.Program{
		&pancho.Program, &ocean.Program, &locusroute.Program, &blockcho.Program,
		&barneshut.Program, &gauss.Program, &phaseflip.Program,
	} {
		_, prepares := p.Sized(0).(harness.Preparer)
		out = append(out, App{Program: p, Variants: p.VariantNames(), prepares: prepares})
	}
	return out
}()

// Result is the registry's uniform view of one application run.
type Result = harness.Result

// Serial is accepted wherever a variant name is: RunCfg(cfg, Serial, n)
// runs the serial reference on one processor of cfg's machine.
const Serial = harness.Serial

// App is one registered application: its declaration (name, size
// presets, schedule-dependent Verify tokens, fault-target task names)
// and the ways to run it by size integer (the methods below shadow the
// embedded Program.Run, which takes the application's Params).
type App struct {
	*harness.Program
	Variants []string // program versions, Base first
	prepares bool     // the workload has a separable analyze phase
}

// Run executes the app with the named variant on procs simulated
// processors; size 0 selects the app's default workload (the meaning of
// size is app-specific: grid dimension, wires per region, bodies, matrix
// dimension).
func (a App) Run(procs int, variant string, size int) (Result, error) {
	return a.RunCfg(cool.Config{Processors: procs}, variant, size)
}

// RunCfg executes the app with the named variant under an explicit base
// runtime configuration — the differential harness selects the
// execution backend, a scheduling policy or a fault plan here, the
// ablations a scheduling policy or a machine. The variant's scheduling knobs
// are applied on top.
func (a App) RunCfg(cfg cool.Config, variant string, size int) (Result, error) {
	return a.Program.Run(variant, a.Sized(size), cfg, nil, nil)
}

// RunOn executes the app on an existing runtime that has not run yet —
// fresh from NewRuntime or Runtime.Reset. This is the serving layer's
// warm-reuse entry point: coolserve keeps runtimes hot and replays jobs
// through here instead of rebuilding per job. A variant whose row sets a
// construction-time knob is refused unless rt was built with it.
func (a App) RunOn(rt *cool.Runtime, variant string, size int) (Result, error) {
	return a.RunOnPrepared(rt, variant, size, nil)
}

// Prepare runs the app's analyze phase (see harness.Preparer) and
// returns the reusable handle, or (nil, nil) when the app has none.
func (a App) Prepare(size int) (any, error) {
	if w, ok := a.Sized(size).(harness.Preparer); ok {
		return w.Prepare()
	}
	return nil, nil
}

// RunOnPrepared is RunOn reusing a handle Prepare built for the same
// size; a nil prep runs the analyze phase inline.
func (a App) RunOnPrepared(rt *cool.Runtime, variant string, size int, prep any) (Result, error) {
	return a.Program.Run(variant, a.Sized(size), cool.Config{}, rt, prep)
}

// RunSerial executes the single-task serial reference.
func (a App) RunSerial(size int) (Result, error) {
	return a.RunCfg(cool.Config{}, Serial, size)
}

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

// DiffVerify compares two key=value Verify strings token for token,
// skipping ignored keys (nil: compare everything; an App's
// ScheduleTokens between two schedules); it describes the first
// difference, or returns "" when the results are differentially
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
