package apps

import (
	"strings"
	"testing"

	cool "github.com/coolrts/cool"
)

func TestCatalogCoversEveryApp(t *testing.T) {
	names := CatalogNames()
	if len(names) != len(Names()) {
		t.Fatalf("catalog has %d entries, registry has %d apps", len(names), len(Names()))
	}
	for _, name := range names {
		e, ok := CatalogLookup(name)
		if !ok {
			t.Fatalf("CatalogNames listed %q but CatalogLookup missed it", name)
		}
		app, ok := Lookup(e.App)
		if !ok {
			t.Fatalf("catalog entry %q names unregistered app %q", name, e.App)
		}
		found := false
		for _, v := range app.Variants {
			if v == e.Variant {
				found = true
			}
		}
		if !found {
			t.Fatalf("catalog entry %q names unknown variant %q (have %v)", name, e.Variant, app.Variants)
		}
		for _, preset := range []string{"small", "medium", "large"} {
			if _, err := CatalogSize(name, preset); err != nil {
				t.Fatalf("catalog entry %q: %v", name, err)
			}
		}
	}
	if _, err := CatalogSize("pancho", "jumbo"); err == nil || !strings.Contains(err.Error(), "preset") {
		t.Fatalf("bogus preset accepted (err=%v)", err)
	}
	if _, err := CatalogSize("nonesuch", ""); err == nil {
		t.Fatal("bogus app accepted")
	}
}

// scheduleIgnore is the ignore set for comparing two runs of app on
// backend: the simulator repeats byte for byte, two native P=4 runs
// may differ on the app's schedule-dependent tokens.
func scheduleIgnore(backend cool.Backend, app string) map[string]bool {
	if a, ok := Lookup(app); ok && backend == cool.BackendNative {
		return a.ScheduleTokens
	}
	return nil
}

// TestCatalogRunsWarmOnBothBackends is the serving layer's core
// contract: every catalog job runs on a warm runtime — fresh, then
// again after Reset — and the second run verifies identically.
func TestCatalogRunsWarmOnBothBackends(t *testing.T) {
	for _, backend := range []cool.Backend{cool.BackendSim, cool.BackendNative} {
		for _, name := range CatalogNames() {
			rt, err := cool.NewRuntime(cool.Config{Processors: 4, Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			first, err := RunCatalogOn(rt, name, "small")
			if err != nil {
				t.Fatalf("%v/%s cold: %v", backend, name, err)
			}
			if first.Report.Total.TasksRun == 0 || first.Verify == "" {
				t.Fatalf("%v/%s cold result %+v", backend, name, first)
			}
			if err := rt.Reset(); err != nil {
				t.Fatalf("%v/%s Reset: %v", backend, name, err)
			}
			second, err := RunCatalogOn(rt, name, "small")
			if err != nil {
				t.Fatalf("%v/%s warm: %v", backend, name, err)
			}
			if d := DiffVerify(first.Verify, second.Verify, scheduleIgnore(backend, name)); d != "" {
				t.Fatalf("%v/%s warm verify differs from cold: %s", backend, name, d)
			}
		}
	}
}

// TestResetEqualsFreshAfterAnyJob: a reset runtime is a fresh one,
// whatever ran on it before, although it hands the earlier job's arrays
// to the next one. For every ordered pair (A, B) of catalog apps at the
// smoke size, B run after A and a Reset must match B on a fresh runtime:
// on the simulator at P=4 in cycles, every total counter and Verify;
// natively at P=2 in Verify, up to B's schedule-dependent tokens.
func TestResetEqualsFreshAfterAnyJob(t *testing.T) {
	for _, c := range []struct {
		backend cool.Backend
		procs   int
	}{{cool.BackendSim, 4}, {cool.BackendNative, 2}} {
		newRT := func() *cool.Runtime {
			rt, err := cool.NewRuntime(cool.Config{Processors: c.procs, Backend: c.backend})
			if err != nil {
				t.Fatal(err)
			}
			return rt
		}
		fresh := make(map[string]Result)
		for _, b := range CatalogNames() {
			r, err := RunCatalogOn(newRT(), b, "smoke")
			if err != nil {
				t.Fatalf("%v/%s fresh: %v", c.backend, b, err)
			}
			fresh[b] = r
		}
		for _, a := range CatalogNames() {
			for _, b := range CatalogNames() {
				rt := newRT()
				if _, err := RunCatalogOn(rt, a, "smoke"); err != nil {
					t.Fatalf("%v/%s: %v", c.backend, a, err)
				}
				if err := rt.Reset(); err != nil {
					t.Fatalf("%v/%s Reset: %v", c.backend, a, err)
				}
				got, err := RunCatalogOn(rt, b, "smoke")
				if err != nil {
					t.Fatalf("%v/%s after %s: %v", c.backend, b, a, err)
				}
				want := fresh[b]
				if c.backend == cool.BackendSim && (got.Cycles != want.Cycles || got.Report.Total != want.Report.Total) {
					t.Errorf("%v/%s after %s: %d cycles, counters\n%+v\non a fresh runtime %d cycles\n%+v",
						c.backend, b, a, got.Cycles, got.Report.Total, want.Cycles, want.Report.Total)
				}
				if d := DiffVerify(want.Verify, got.Verify, scheduleIgnore(c.backend, b)); d != "" {
					t.Errorf("%v/%s after %s: verify differs from a fresh runtime's: %s", c.backend, b, a, d)
				}
			}
		}
	}
}

// TestCatalogPreparedMatchesFresh is the residency fast path's
// correctness contract: a job replayed from cached analyze-phase state
// verifies identically to one that ran the analyze phase inline, on
// both backends, across repeated reuse of the same handle.
func TestCatalogPreparedMatchesFresh(t *testing.T) {
	prep, err := PrepareCatalog("pancho", "small")
	if err != nil {
		t.Fatal(err)
	}
	if prep == nil {
		t.Fatal("pancho advertises no analyze phase")
	}
	for _, backend := range []cool.Backend{cool.BackendSim, cool.BackendNative} {
		rt, err := cool.NewRuntime(cool.Config{Processors: 4, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := RunCatalogOn(rt, "pancho", "small")
		if err != nil {
			t.Fatalf("%v fresh: %v", backend, err)
		}
		for i := 0; i < 2; i++ {
			if err := rt.Reset(); err != nil {
				t.Fatalf("%v Reset %d: %v", backend, i, err)
			}
			cached, err := RunCatalogPrepared(rt, "pancho", "small", prep)
			if err != nil {
				t.Fatalf("%v prepared %d: %v", backend, i, err)
			}
			if d := DiffVerify(fresh.Verify, cached.Verify, scheduleIgnore(backend, "pancho")); d != "" {
				t.Fatalf("%v prepared run %d verify differs from fresh: %s", backend, i, d)
			}
		}
	}
}

// TestCatalogPreparedRejectsMismatch: a handle built for one size must
// not silently serve another.
func TestCatalogPreparedRejectsMismatch(t *testing.T) {
	prep, err := PrepareCatalog("pancho", "small")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cool.NewRuntime(cool.Config{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCatalogPrepared(rt, "pancho", "medium", prep); err == nil {
		t.Fatal("medium job accepted a small-size prep handle")
	}
	if _, err := RunCatalogPrepared(rt, "pancho", "small", "bogus"); err == nil {
		t.Fatal("foreign handle type accepted")
	}
	// Apps with no analyze phase report a nil handle and still run.
	gp, err := PrepareCatalog("gauss", "small")
	if err != nil || gp != nil {
		t.Fatalf("gauss prep = %v, %v; want nil, nil", gp, err)
	}
}

func TestCatalogHasPrepare(t *testing.T) {
	if !CatalogHasPrepare("pancho") {
		t.Fatal("pancho lost its analyze phase")
	}
	if CatalogHasPrepare("gauss") || CatalogHasPrepare("nonesuch") {
		t.Fatal("prep advertised where none exists")
	}
}
