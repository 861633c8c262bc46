package apps

import (
	"fmt"
	"sort"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps/harness"
)

// This file is the serving view of the registry: what a long-lived
// deployment (cmd/coolserve, the repo benchmark) exposes as submittable
// job kinds. A job submission names (app, size preset); the app's
// declaration supplies the served variant and the workload size.

// CatalogEntry describes one servable job kind.
type CatalogEntry struct {
	App string
	// Variant is the program version a serving deployment runs: the
	// app's full-affinity variant, which sets no construction-time knob
	// and so runs as declared on a warm runtime.
	Variant string
	// Sizes maps the preset names to the app-specific size integer
	// Run/RunOn take.
	Sizes map[string]int
}

// CatalogNames lists the servable job kinds, sorted.
func CatalogNames() []string {
	out := Names()
	sort.Strings(out)
	return out
}

// CatalogLookup finds a servable job kind by app name.
func CatalogLookup(app string) (CatalogEntry, bool) {
	a, ok := Lookup(app)
	if !ok {
		return CatalogEntry{}, false
	}
	return CatalogEntry{App: a.Name, Variant: a.Variants[a.Served], Sizes: a.Sizes}, true
}

// CatalogSize resolves a preset name ("" means "small") to the
// app-specific size integer.
func CatalogSize(app, size string) (int, error) {
	_, n, err := catalogJob(app, size)
	return n, err
}

// catalogJob resolves one (app, size preset) submission.
func catalogJob(app, size string) (App, int, error) {
	a, ok := Lookup(app)
	if !ok {
		return App{}, 0, fmt.Errorf("apps: no servable job kind %q (have %v)", app, CatalogNames())
	}
	if size == "" {
		size = "small"
	}
	n, ok := a.Sizes[size]
	if !ok {
		return App{}, 0, fmt.Errorf("apps: %s has no size preset %q (have small, medium, large)", app, size)
	}
	return a, n, nil
}

// RunCatalogOn executes one catalog job on an existing runtime that
// has not run yet (fresh from NewRuntime or Runtime.Reset) — the
// serving layer's per-job entry point.
func RunCatalogOn(rt *cool.Runtime, app, size string) (Result, error) {
	return RunCatalogPrepared(rt, app, size, nil)
}

// CatalogHasPrepare reports whether a job kind has a separable analyze
// phase — whether PrepareCatalog would return a reusable handle. Cheap:
// callers use it to skip residency bookkeeping for apps that have
// nothing to keep resident.
func CatalogHasPrepare(app string) bool {
	a, ok := Lookup(app)
	return ok && a.prepares
}

// PrepareCatalog runs a catalog job kind's analyze phase and returns
// the reusable handle, or (nil, nil) when the app has no separable
// analyze phase. The handle is read-only across runs: a serving layer
// may cache it and replay any number of (app, size) jobs through
// RunCatalogPrepared, then hand it back through ReleasePrepared.
func PrepareCatalog(app, size string) (any, error) {
	a, n, err := catalogJob(app, size)
	if err != nil {
		return nil, err
	}
	return a.Prepare(n)
}

// ReleasePrepared hands back a handle PrepareCatalog returned, once no
// run can still read it and no cache holds it, so that a later
// PrepareCatalog of equal parameters refills its storage instead of
// allocating. A handle is released at most once and never run after;
// nil, and a handle of an app that recycles nothing, are ignored.
func ReleasePrepared(prep any) {
	if r, ok := prep.(harness.Releaser); ok {
		r.Release()
	}
}

// RunCatalogPrepared executes one catalog job, reusing prep from
// PrepareCatalog for the same (app, size) when non-nil; a nil prep runs
// the analyze phase inline.
func RunCatalogPrepared(rt *cool.Runtime, app, size string, prep any) (Result, error) {
	a, n, err := catalogJob(app, size)
	if err != nil {
		return Result{}, err
	}
	return a.RunOnPrepared(rt, a.Variants[a.Served], n, prep)
}
