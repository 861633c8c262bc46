package chaos

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

// TestCampaignsDifferentiallyIdentical is the acceptance gate: 50
// seeded campaigns per app must complete with results identical to the
// fault-free run (modulo the documented schedule-dependent tokens) and
// zero leaked or duplicated tasks.
func TestCampaignsDifferentiallyIdentical(t *testing.T) {
	o := NewOracle()
	for _, tc := range []struct {
		app  string
		size int
	}{{"gauss", 48}, {"ocean", 64}} {
		app := lookup(t, tc.app)
		for seed := int64(1); seed <= 50; seed++ {
			c := NewCampaign(app, seed, 8, tc.size)
			out := o.Run(app, c)
			if out.Verdict == Leak {
				t.Fatalf("%s seed %d leaked tasks: %s", tc.app, seed, out.Detail)
			}
			if out.Verdict != OK {
				t.Fatalf("%s seed %d: verdict %v (%s)\nplan:\n%s",
					tc.app, seed, out.Verdict, out.Detail, c.Plan.BuilderString())
			}
		}
	}
}

// TestCampaignsAreDeterministic: the same seed yields the same plan and
// the same classified outcome.
func TestCampaignsAreDeterministic(t *testing.T) {
	app := lookup(t, "gauss")
	a := NewCampaign(app, 7, 8, 48)
	b := NewCampaign(app, 7, 8, 48)
	if a.Plan.BuilderString() != b.Plan.BuilderString() {
		t.Fatal("same seed produced different plans")
	}
	o := NewOracle()
	oa, ob := o.Run(app, a), o.Run(app, b)
	if oa != ob {
		t.Fatalf("same campaign classified differently: %+v vs %+v", oa, ob)
	}
}

// TestShrinkerFindsMinimalPlan plants one genuinely failing event (a
// slowdown of a processor the P=8 machine does not have — chaos never
// generates one, and NewRuntime rejects the plan, so it is always an
// Unexpected failure) among benign noise, and checks the shrinker
// reduces the plan to exactly that event.
func TestShrinkerFindsMinimalPlan(t *testing.T) {
	app := lookup(t, "gauss")
	c := NewCampaign(app, 3, 8, 48)
	c.Plan = cool.NewFaultPlan().
		SlowProcessor(1, 0, 4, 50_000).
		StallProcessor(2, 5_000, 5_000).
		SlowProcessor(99, 0, 2, 0).
		DegradeMemory(1, 0, 2)
	o := NewOracle()
	if out := o.Run(app, c); out.Verdict != Unexpected || !strings.Contains(out.Detail, "out of range") {
		t.Fatalf("planted out-of-range event classified as %v (%s), want unexpected", out.Verdict, out.Detail)
	}
	min, out := o.Shrink(app, c)
	if out.Verdict != Unexpected {
		t.Fatalf("shrunk verdict = %v, want unexpected", out.Verdict)
	}
	if min.Plan.Len() != 1 {
		t.Fatalf("shrunk to %d events, want 1:\n%s", min.Plan.Len(), min.Plan.BuilderString())
	}
	if bs := min.Plan.BuilderString(); !strings.Contains(bs, "SlowProcessor(99, 0, 2, 0)") {
		t.Fatalf("shrinker kept the wrong event:\n%s", bs)
	}
}

// TestDiffVerify: the oracle compares a faulted run with its fault-free
// reference modulo the app's ScheduleTokens, so a schedule-dependent
// token may differ but any other token is a mismatch.
func TestDiffVerify(t *testing.T) {
	ignore := lookup(t, "locusroute").ScheduleTokens
	if d := apps.DiffVerify("cost=5 consistent=true", "cost=9 consistent=true", ignore); d != "" {
		t.Fatalf("schedule token cost flagged: %s", d)
	}
	if d := apps.DiffVerify("cost=5 consistent=true", "cost=5 consistent=false", ignore); d == "" {
		t.Fatal("a changed consistent token was not flagged")
	}
}
