package apps

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps/harness"
)

// resetCase is one generated draw of TestSimResetEqualsFreshProperty: a
// configuration, the job that runs on it before the Reset, and the probe
// job that runs after it.
type resetCase struct {
	seed       int64
	procs      int
	mode       string // plain | faults | deadline
	pre, probe App
	preRow     harness.Variant // the preceding job's version, whose knobs the configuration carries
	probeV     string
}

func (c resetCase) String() string {
	return fmt.Sprintf("seed %d P=%d %s: %s/%s then %s/%s", c.seed, c.procs, c.mode,
		c.pre.Name, c.preRow.Name, c.probe.Name, c.probeV)
}

// drawResetCase draws a case: the seed picks P and the mode in turn, so
// consecutive seeds cover P × mode, and draws the apps and variants. The
// configuration carries the preceding variant's scheduling knobs, and
// the probe's variant is drawn among those a runtime with these knobs
// accepts.
func drawResetCase(seed int64) resetCase {
	rng := rand.New(rand.NewSource(seed))
	c := resetCase{seed: seed, procs: []int{1, 8, 32}[seed/3%3],
		mode: []string{"plain", "faults", "deadline"}[seed%3]}
	c.pre = registry[rng.Intn(len(registry))]
	row := c.pre.Rows[rng.Intn(len(c.pre.Rows))]
	c.preRow = row
	c.probe = registry[rng.Intn(len(registry))]
	var ok []string
	for _, r := range c.probe.Rows {
		if (!r.IgnoreHints || row.IgnoreHints) && (!r.ClusterStealingOnly || row.ClusterStealingOnly) {
			ok = append(ok, r.Name)
		}
	}
	c.probeV = ok[rng.Intn(len(ok))]
	return c
}

// config builds the case's configuration. An expired deadline is half
// the preceding job's cycles on an unbounded machine, so that job stops
// mid-run with tasks queued, blocked and running.
func (c resetCase) config(t *testing.T) cool.Config {
	cfg := cool.Config{Processors: c.procs}
	cfg.Sched.IgnoreHints, cfg.Sched.ClusterStealingOnly = c.preRow.IgnoreHints, c.preRow.ClusterStealingOnly
	clusters := (c.procs + 3) / 4
	switch c.mode {
	case "faults":
		cfg.Faults = cool.RandomFaultPlan(c.seed, c.procs, clusters, 2+int(c.seed%4))
	case "deadline":
		rt, err := cool.NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.pre.RunOn(rt, c.preRow.Name, c.pre.Sizes["smoke"]); err != nil {
			t.Fatalf("%v: unbounded run: %v", c, err)
		}
		cfg.Deadline = max(rt.ElapsedCycles()/2, 1)
	}
	return cfg
}

// probeRun is everything a probe job's run shows: its error, Report and
// Verify tokens.
type probeRun struct {
	err    string
	report cool.Report
	verify string
}

func runProbe(c resetCase, rt *cool.Runtime) probeRun {
	res, err := c.probe.RunOn(rt, c.probeV, c.probe.Sizes["smoke"])
	r := probeRun{report: rt.Report(), verify: res.Verify}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// TestSimResetEqualsFreshProperty: on the simulator a reset runtime is
// a new one, whatever ran on it and however that run ended. Each draw
// runs a preceding job (app × variant × P ∈ {1, 8, 32} × a plain run, a
// fault plan, or an expired deadline), resets the runtime, and runs a
// probe job; the probe must fail or succeed alike and show the same
// Report (cycles, busy and idle cycles, set splits, every counter of
// every processor) and the same Verify tokens as on a new runtime with
// the same Config. A failing draw prints its seed; drawResetCase(seed)
// replays it.
func TestSimResetEqualsFreshProperty(t *testing.T) {
	draws := 60
	if testing.Short() {
		draws = 12
	}
	for i := 0; i < draws; i++ {
		c := drawResetCase(int64(i))
		cfg := c.config(t)
		fresh, err := cool.NewRuntime(cfg)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		want := runProbe(c, fresh)
		rt, err := cool.NewRuntime(cfg)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		_, preErr := c.pre.RunOn(rt, c.preRow.Name, c.pre.Sizes["smoke"])
		if c.mode == "deadline" && preErr == nil {
			t.Errorf("%v: the preceding job met its expired deadline", c)
		}
		if err := rt.Reset(); err != nil {
			t.Fatalf("%v: Reset: %v", c, err)
		}
		got := runProbe(c, rt)
		if got.err != want.err {
			t.Errorf("%v: probe error after Reset %q, on a new runtime %q", c, got.err, want.err)
		}
		if !reflect.DeepEqual(got.report, want.report) {
			t.Errorf("%v: probe Report after Reset\n%+v\non a new runtime\n%+v", c, got.report, want.report)
		}
		if got.verify != want.verify {
			t.Errorf("%v: probe Verify after Reset %q, on a new runtime %q", c, got.verify, want.verify)
		}
	}
}
