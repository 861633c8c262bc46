package apps

import (
	"fmt"
	"sort"

	cool "github.com/coolrts/cool"
)

// This file is the serving job catalog: the registry entries a
// long-lived deployment (cmd/coolserve, the repo benchmark) exposes as
// submittable job kinds, each with named size presets. The catalog
// exists so the serving layer and the benchmark stop duplicating app
// wiring — a job submission names (app, size) and the catalog
// resolves the variant and workload parameters.

// CatalogEntry describes one servable job kind.
type CatalogEntry struct {
	App string
	// Variant is the program version a serving deployment runs: the
	// app's full-affinity variant, whose hints work on a warm runtime
	// (config-level variant knobs such as IgnoreHints cannot change
	// after NewRuntime, so Base-style variants are not served).
	Variant string
	// Sizes maps the preset names ("small", "medium", "large") to the
	// app-specific size integer Run/RunOn take. Presets respect each
	// app's divisibility constraints (ocean N%32, barneshut Bodies%64,
	// blockcho N%32).
	Sizes map[string]int
}

// catalog is keyed by app name. Small presets are sized so an e2e test
// can stream hundreds of jobs through warm native runtimes in seconds.
var catalog = map[string]CatalogEntry{
	"pancho":     {App: "pancho", Variant: "Distr+Aff", Sizes: map[string]int{"small": 32, "medium": 64, "large": 96}},
	"ocean":      {App: "ocean", Variant: "Distr+Aff", Sizes: map[string]int{"small": 64, "medium": 128, "large": 192}},
	"locusroute": {App: "locusroute", Variant: "Affinity+ObjectDistr", Sizes: map[string]int{"small": 6, "medium": 12, "large": 24}},
	"blockcho":   {App: "blockcho", Variant: "Affinity+Distr", Sizes: map[string]int{"small": 128, "medium": 256, "large": 384}},
	"barneshut":  {App: "barneshut", Variant: "Affinity+Distr", Sizes: map[string]int{"small": 256, "medium": 1024, "large": 2048}},
	"gauss":      {App: "gauss", Variant: "Task+Object", Sizes: map[string]int{"small": 48, "medium": 96, "large": 192}},
	"phaseflip":  {App: "phaseflip", Variant: "Phases", Sizes: map[string]int{"small": 120, "medium": 300, "large": 600}},
}

// CatalogNames lists the servable job kinds, sorted.
func CatalogNames() []string {
	out := make([]string, 0, len(catalog))
	for name := range catalog {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// CatalogLookup finds a servable job kind by app name.
func CatalogLookup(app string) (CatalogEntry, bool) {
	e, ok := catalog[app]
	return e, ok
}

// CatalogSize resolves a preset name ("" means "small") to the
// app-specific size integer.
func CatalogSize(app, size string) (int, error) {
	e, ok := catalog[app]
	if !ok {
		return 0, fmt.Errorf("apps: no servable job kind %q (have %v)", app, CatalogNames())
	}
	if size == "" {
		size = "small"
	}
	n, ok := e.Sizes[size]
	if !ok {
		return 0, fmt.Errorf("apps: %s has no size preset %q (have small, medium, large)", app, size)
	}
	return n, nil
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
	e, ok := catalog[app]
	if !ok {
		return false
	}
	a, ok := Lookup(e.App)
	return ok && a.Prepare != nil
}

// PrepareCatalog runs a catalog job kind's analyze phase and returns
// the reusable handle, or (nil, nil) when the app has no separable
// analyze phase. The handle is read-only across runs: a serving layer
// may cache it and replay any number of (app, size) jobs through
// RunCatalogPrepared.
func PrepareCatalog(app, size string) (any, error) {
	e, ok := catalog[app]
	if !ok {
		return nil, fmt.Errorf("apps: no servable job kind %q (have %v)", app, CatalogNames())
	}
	n, err := CatalogSize(app, size)
	if err != nil {
		return nil, err
	}
	a, ok := Lookup(e.App)
	if !ok {
		return nil, fmt.Errorf("apps: catalog entry %q names unregistered app %q", app, e.App)
	}
	if a.Prepare == nil {
		return nil, nil
	}
	return a.Prepare(n)
}

// RunCatalogPrepared executes one catalog job, reusing prep from
// PrepareCatalog for the same (app, size) when non-nil; a nil prep runs
// the analyze phase inline.
func RunCatalogPrepared(rt *cool.Runtime, app, size string, prep any) (Result, error) {
	e, ok := catalog[app]
	if !ok {
		return Result{}, fmt.Errorf("apps: no servable job kind %q (have %v)", app, CatalogNames())
	}
	n, err := CatalogSize(app, size)
	if err != nil {
		return Result{}, err
	}
	a, ok := Lookup(e.App)
	if !ok {
		return Result{}, fmt.Errorf("apps: catalog entry %q names unregistered app %q", app, e.App)
	}
	if prep != nil && a.RunOnPrepared != nil {
		return a.RunOnPrepared(rt, e.Variant, n, prep)
	}
	return a.RunOn(rt, e.Variant, n)
}
