package xcheck

import (
	"strings"
	"testing"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
)

func lookup(t *testing.T, name string) apps.App {
	t.Helper()
	app, ok := apps.Lookup(name)
	if !ok {
		t.Fatalf("app %q not registered", name)
	}
	return app
}

// lastCell is app's last variant at size on procs processors, with its
// reference run.
func lastCell(t *testing.T, name string, procs, size int) (Cell, run) {
	t.Helper()
	app := lookup(t, name)
	c := Cell{App: app, Variant: app.Variants[len(app.Variants)-1], Size: size, Procs: procs}
	ref := c.run(cool.Config{Processors: procs})
	if o := sound(ref); o.Verdict != OK {
		t.Fatalf("%v reference: %v: %s", c, o.Verdict, o.Detail)
	}
	return c, ref
}

// TestSmallSweep cross-checks every app at smoke sizes on one and two
// processors, with two seeds of the seeded arms. The full matrix runs
// under `coolbench -xcheck` and in CI.
func TestSmallSweep(t *testing.T) {
	var out strings.Builder
	if err := Run(Options{Procs: []int{1, 2}, Small: true, Seed: 1, Campaigns: 2, Out: &out}); err != nil {
		t.Fatalf("differential sweep failed:\n%s\n%v", out.String(), err)
	}
	for _, want := range []string{"ok   gauss", "reset seed=2"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("sweep did not cover %q:\n%s", want, out.String())
		}
	}
}

func TestUnknownApp(t *testing.T) {
	if err := Run(Options{Apps: []string{"nope"}, Procs: []int{1}, Small: true}); err == nil {
		t.Fatal("expected error for unknown app")
	}
}

// TestDiffVerify: an arm's Verify string is held to the reference
// token for token, ignored keys aside, and a missing field fails it.
func TestDiffVerify(t *testing.T) {
	var ref, res run
	ignore := map[string]bool{"cost": true}
	ref.Verify, res.Verify = "cost=5 ok=true", "cost=9 ok=true"
	if o := check(ref, res, ignore, false); o.Verdict != OK {
		t.Fatalf("an ignored token flagged: %+v", o)
	}
	if o := check(ref, res, ignore, true); o.Verdict != Mismatch {
		t.Fatalf("a strict check ignored a token: %+v", o)
	}
	res.Verify = "cost=5 ok=false"
	if o := check(ref, res, ignore, false); o.Verdict != Mismatch || !strings.Contains(o.Detail, "ok:") {
		t.Fatalf("a changed ok token gave %+v", o)
	}
	res.Verify = "cost=5"
	if o := check(ref, res, ignore, false); o.Verdict != Mismatch || !strings.Contains(o.Detail, "shape") {
		t.Fatalf("a missing field gave %+v", o)
	}
}

// TestPolicyArmChangesTheSchedule: the policy arm runs a second
// schedule, so on every app's Base and last variant at P=2 its cycles
// differ from the reference's while its results agree.
func TestPolicyArmChangesTheSchedule(t *testing.T) {
	for _, name := range apps.Names() {
		app := lookup(t, name)
		for _, variant := range []string{app.Variants[0], app.Variants[len(app.Variants)-1]} {
			c := Cell{App: app, Variant: variant, Size: app.Sizes["smoke"], Procs: 2}
			ref, got := c.run(cool.Config{Processors: 2}), c.run(policy.Config(c))
			if o := check(ref, got, c.ignore(), false); o.Verdict != OK {
				t.Errorf("%v: %v: %s", c, o.Verdict, o.Detail)
			}
			if ref.Cycles == got.Cycles {
				t.Errorf("%v: the policy arm ran the reference's %d cycles", c, ref.Cycles)
			}
		}
	}
}

// TestCampaignsDifferentiallyIdentical is the acceptance gate: 50
// seeded campaigns per app must complete with results identical to the
// fault-free run (modulo the documented schedule-dependent tokens) and
// zero leaked or duplicated tasks.
func TestCampaignsDifferentiallyIdentical(t *testing.T) {
	for _, tc := range []struct {
		app  string
		size int
	}{{"gauss", 48}, {"ocean", 64}} {
		c, ref := lastCell(t, tc.app, 8, tc.size)
		for seed := int64(1); seed <= 50; seed++ {
			plan := faultPlan(seed, 8)
			out := judge(c, ref, faultArm(plan))
			if out.Verdict == Leak {
				t.Fatalf("%s seed %d leaked tasks: %s", tc.app, seed, out.Detail)
			}
			if out.Verdict != OK {
				t.Fatalf("%s seed %d: verdict %v (%s)\nplan:\n%s",
					tc.app, seed, out.Verdict, out.Detail, plan.BuilderString())
			}
		}
	}
}

// TestCampaignsAreDeterministic: the same seed yields the same plan and
// the same classified outcome.
func TestCampaignsAreDeterministic(t *testing.T) {
	a, b := faultPlan(7, 8), faultPlan(7, 8)
	if a.BuilderString() != b.BuilderString() {
		t.Fatal("same seed produced different plans")
	}
	c, ref := lastCell(t, "gauss", 8, 48)
	oa, ob := judge(c, ref, faultArm(a)), judge(c, ref, faultArm(b))
	if oa != ob {
		t.Fatalf("same campaign classified differently: %+v vs %+v", oa, ob)
	}
}

// TestShrinkerFindsMinimalPlan plants one genuinely failing event (a
// slowdown of a processor the P=8 machine does not have — faultPlan
// never generates one, and NewRuntime rejects the plan, so it is always
// an Unexpected failure) among benign noise, and checks the shrinker
// reduces the plan to exactly that event.
func TestShrinkerFindsMinimalPlan(t *testing.T) {
	c, ref := lastCell(t, "gauss", 8, 48)
	plan := cool.NewFaultPlan().
		SlowProcessor(1, 0, 4, 50_000).
		StallProcessor(2, 5_000, 5_000).
		SlowProcessor(99, 0, 2, 0).
		DegradeMemory(1, 0, 2)
	if out := judge(c, ref, faultArm(plan)); out.Verdict != Unexpected || !strings.Contains(out.Detail, "out of range") {
		t.Fatalf("planted out-of-range event classified as %v (%s), want unexpected", out.Verdict, out.Detail)
	}
	minPlan, out := shrink(c, ref, plan)
	if out.Verdict != Unexpected {
		t.Fatalf("shrunk verdict = %v, want unexpected", out.Verdict)
	}
	if minPlan.Len() != 1 {
		t.Fatalf("shrunk to %d events, want 1:\n%s", minPlan.Len(), minPlan.BuilderString())
	}
	if bs := minPlan.BuilderString(); !strings.Contains(bs, "SlowProcessor(99, 0, 2, 0)") {
		t.Fatalf("shrinker kept the wrong event:\n%s", bs)
	}
}

// TestSimResetEqualsFreshProperty: on the simulator a reset runtime is
// a new one, whatever ran on it and however that run ended. Each draw of
// the Reset arm runs a preceding job (app × variant × P ∈ {1, 8, 32} × a
// plain run, a fault plan, or an expired deadline), resets the runtime,
// and runs a probe cell; the probe must fail or succeed alike and show
// the same Report (cycles, busy and idle cycles, set splits, every
// counter of every processor) and the same Verify tokens as on a new
// runtime with the same Config. A failing draw prints its seed;
// `coolbench -xcheck` prints the line that replays it.
func TestSimResetEqualsFreshProperty(t *testing.T) {
	draws := 60
	if testing.Short() {
		draws = 12
	}
	for seed := int64(0); seed < int64(draws); seed++ {
		c, a, err := drawReset(seed)
		if err != nil {
			t.Fatal(err)
		}
		if o := judge(c, run{}, a); o.Verdict != OK {
			t.Errorf("%v %s: %v: %s", c, a.Name, o.Verdict, o.Detail)
		}
	}
}
