package pancho

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps/harness"
)

// emptyPreps drops every stashed Prep, so a test sees only its own.
func emptyPreps() { preps = harness.Stash[Params, *Prep]{Cap: preps.Cap} }

// TestRefilledPrepEqualsFresh refills one Prep through a sequence of
// grids, widths and fill budgets that grows and shrinks every array it
// holds; after each refill it must deep-equal a Prep filled once, and
// so must its temporaries.
func TestRefilledPrepEqualsFresh(t *testing.T) {
	seq := []Params{
		{Grid: 12, MaxPanel: 4},
		{Grid: 32},
		{Grid: 1},
		{Grid: 20, MaxPanel: 1, RelaxFill: 2},
		{Grid: 64},
		{Grid: 2, MaxPanel: 16, RelaxFill: 0.1},
		{Grid: 12, MaxPanel: 4},
		{Grid: 5, MaxPanel: 3, RelaxFill: 0.3},
		{Grid: 32},
	}
	var refilled Prep
	for i, prm := range seq {
		prm = prm.normalize()
		if err := refilled.fill(prm); err != nil {
			t.Fatal(err)
		}
		var fresh Prep
		if err := fresh.fill(prm); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&refilled, &fresh) {
			t.Fatalf("step %d, %+v: the refilled Prep differs from a fresh one", i, prm)
		}
	}
	verifies(t, &refilled)
}

// TestPrepareRecycledAllocBytes guards the warm analyze phase: once a
// Prep of equal Params has been released, every Prepare refills one and
// allocates at most 4 KB, at each catalog preset. The byte count is the
// process's, and right after the fresh Prepare of a large Prep it has
// caught an allocation Prepare did not make (~5 KB, once in several
// runs), so a Prepare over the ceiling is measured again, up to three
// times. A Prepare that allocates does so on every try.
func TestPrepareRecycledAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const ceiling, tries = 4 << 10, 3
	emptyPreps()
	defer emptyPreps()
	for _, size := range []string{"small", "medium", "large"} {
		prm := Program.Sized(Program.Sizes[size]).(Params)
		prepared(t, prm).Release()
		for i := 2; i <= 4; i++ {
			var got []uint64
			for len(got) < tries && (len(got) == 0 || got[len(got)-1] > ceiling) {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				prep := prepared(t, prm)
				runtime.ReadMemStats(&m1)
				prep.Release()
				got = append(got, m1.TotalAlloc-m0.TotalAlloc)
			}
			t.Logf("pancho/%s: Prepare %d allocated %v bytes", size, i, got)
			if got[len(got)-1] > ceiling {
				t.Errorf("pancho/%s: Prepare %d allocated %v bytes in %d tries, more than %d each time", size, i, got, tries, ceiling)
			}
		}
	}
}

// TestInlinePrepGoesBackAtRelease: a run without a kept Prep analyzes
// inline and hands its Prep back after Finish, and the next such run
// refills that same Prep; a kept Prep is never handed back by a run.
func TestInlinePrepGoesBackAtRelease(t *testing.T) {
	emptyPreps()
	defer emptyPreps()
	prm := small().normalize()
	cfg := cool.Config{Processors: 2}
	if _, err := runCfg(cfg, DistrAff.String(), prm); err != nil {
		t.Fatal(err)
	}
	first, ok := preps.Take(prm)
	if !ok {
		t.Fatal("an inline Prep was not handed back after the run")
	}
	preps.Put(prm, first)
	if _, err := runCfg(cfg, DistrAff.String(), prm); err != nil {
		t.Fatal(err)
	}
	if again, ok := preps.Take(prm); !ok || again != first {
		t.Fatal("the next run did not refill the handed-back Prep")
	}

	kept := prepared(t, prm)
	if _, err := Program.Run(DistrAff.String(), prm, cfg, nil, kept); err != nil {
		t.Fatal(err)
	}
	if _, ok := preps.Take(prm); ok {
		t.Fatal("a run handed back a Prep its caller kept")
	}
	if kept.released {
		t.Fatal("a kept Prep is marked released")
	}
}

// TestReleasedPrepIsRefused: a released Prep cannot be built on or
// released again, and a poisoned one is never handed to a Prepare.
func TestReleasedPrepIsRefused(t *testing.T) {
	emptyPreps()
	defer emptyPreps()
	prm := small().normalize()
	rt, err := cool.NewRuntime(cool.Config{Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	prep := prepared(t, prm)
	prep.Release()
	if _, err := prm.Build(rt, int(DistrAff), prep); err == nil {
		t.Fatal("Build accepted a released Prep")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a second Release did not panic")
			}
		}()
		prep.Release()
	}()
	if got := prepared(t, prm); got != prep {
		t.Fatal("Prepare did not refill the released Prep")
	}

	PoisonReleased(true)
	defer PoisonReleased(false)
	prep.Release()
	if _, err := prm.Build(rt, int(DistrAff), prep); err == nil {
		t.Fatal("Build accepted a poisoned Prep")
	}
	for _, v := range prep.a.Val {
		if !math.IsNaN(v) {
			t.Fatalf("a poisoned Prep holds the value %v", v)
		}
	}
	if got := prepared(t, prm); got == prep {
		t.Fatal("Prepare refilled a poisoned Prep")
	}
}
