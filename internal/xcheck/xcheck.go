// Package xcheck is the repo's one differential harness: affinity hints
// and stealing may change where and when tasks run, never what they
// compute. A cell is an (app, variant, size, P) point whose reference is
// a plain simulator run; every arm runs the cell another way and one
// check holds it to the reference: the Verify tokens (the app's
// schedule-dependent ones excepted at P>1), the tasks run and whole
// task-affinity sets.
//
// The arms of an app's Base and last variant are "policy" (the simulator
// with stealing off, P>1), Options.NativeRuns plain native runs, a
// "native armed" run whose deadline cannot fire, and on the last variant
// one seeded fault plan per campaign, which shrinks to a 1-minimal plan
// when it fails. Each campaign seed also draws a "reset" arm: a
// simulator runtime that ran a preceding job (plain, faulted, or stopped
// by an expired deadline) and was reset, held strictly to a new runtime
// built from the same Config. Every failing arm prints one
// `coolbench -xcheck` line that replays it.
package xcheck

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"strings"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
)

// Options configures one sweep.
type Options struct {
	Procs      []int    // machine sizes of the cells (default 1, 2, 4, 8, 16)
	Small      bool     // smoke-test workloads
	Apps       []string // the apps to sweep (default: all)
	NativeRuns int      // plain native runs per cell (default 2)
	// Seed is the first of Campaigns seeds, each one fault plan on every
	// last-variant cell and one Reset draw.
	Seed      int64
	Campaigns int
	Out       io.Writer // one "ok" or "FAIL" line per cell (default: discard)
}

// ErrUnknownApp is returned, before any cell runs, for an app name that
// no application registers.
var ErrUnknownApp = errors.New("unknown app")

// A Cell is an app's variant at a workload size on Procs processors.
type Cell struct {
	App     apps.App
	Variant string
	Size    int
	Procs   int
}

func (c Cell) String() string { return fmt.Sprintf("%s %s P=%d", c.App.Name, c.Variant, c.Procs) }

// An Arm is one way to run a cell: Config gives its run configuration.
// A warm arm runs Pre on a runtime built from Config, resets it and runs
// the cell there; it is held strictly to a new runtime from that Config.
type Arm struct {
	Name   string
	Config func(Cell) cool.Config
	Pre    func(*cool.Runtime) error // the preceding job; an error is a failed expectation
}

var (
	policy = Arm{Name: "policy", Config: func(c Cell) cool.Config {
		return cool.Config{Processors: c.Procs, Sched: cool.SchedPolicy{NoStealing: true}}
	}}
	native = Arm{Name: "native", Config: func(c Cell) cool.Config {
		return cool.Config{Processors: c.Procs, Backend: cool.BackendNative}
	}}
	armed = Arm{Name: "native armed", Config: func(c Cell) cool.Config {
		return cool.Config{Processors: c.Procs, Backend: cool.BackendNative, Deadline: 30_000_000_000} // 30 s
	}}
)

// faultPlan is a campaign's seeded fault plan on P processors.
func faultPlan(seed int64, procs int) *cool.FaultPlan {
	return cool.RandomFaultPlan(seed, procs, (procs+3)/4, 2+int(seed%5))
}

func faultArm(plan *cool.FaultPlan) Arm {
	return Arm{Name: "faults", Config: func(c Cell) cool.Config {
		return cool.Config{Processors: c.Procs, Faults: plan}
	}}
}

// Verdict classifies an arm's run against its reference, gravest last.
type Verdict int

const (
	OK         Verdict = iota
	Mismatch           // a Verify token, a set or (strict) the Report differ
	Leak               // a different number of tasks ran: work was lost or duplicated
	Unexpected         // the run failed where its reference did not
)

func (v Verdict) String() string { return [...]string{"ok", "mismatch", "leak", "unexpected"}[v] }

// An Outcome is an arm's gravest verdict and everything its check saw.
type Outcome struct {
	Verdict Verdict
	Detail  string
}

// run is what one run of a cell shows.
type run struct {
	apps.Result
	err string
}

func result(res apps.Result, err error) run {
	if err != nil {
		return run{res, err.Error()}
	}
	return run{res, ""}
}

func (c Cell) run(cfg cool.Config) run { return result(c.App.RunCfg(cfg, c.Variant, c.Size)) }

// runOn runs the cell on rt and reads the Report even when the run
// failed, so a stopped run still shows what it did.
func (c Cell) runOn(rt *cool.Runtime) run {
	r := result(c.App.RunOn(rt, c.Variant, c.Size))
	r.Report = rt.Report()
	return r
}

// ignore is the set of Verify tokens a second schedule may change; one
// processor runs one order on every arm.
func (c Cell) ignore() map[string]bool {
	if c.Procs == 1 {
		return nil
	}
	return c.App.ScheduleTokens
}

// check holds got to its reference. A strict check ignores no token and
// compares the whole Report.
func check(ref, got run, ignore map[string]bool, strict bool) Outcome {
	if got.err != ref.err {
		if ref.err != "" {
			got.err += "; the reference failed: " + ref.err
		}
		return Outcome{Unexpected, got.err}
	}
	if strict {
		ignore = nil
	}
	var o Outcome
	var msgs []string
	add := func(v Verdict, msg string) { o.Verdict, msgs = max(o.Verdict, v), append(msgs, msg) }
	if d := apps.DiffVerify(ref.Verify, got.Verify, ignore); d != "" {
		add(Mismatch, d)
	}
	if g, w := got.Report.Total.TasksRun, ref.Report.Total.TasksRun; g != w {
		add(Leak, fmt.Sprintf("ran %d tasks, reference ran %d", g, w))
	}
	if got.Report.SetSplits != 0 {
		add(Mismatch, fmt.Sprintf("%d set splits", got.Report.SetSplits))
	}
	if strict && !reflect.DeepEqual(got.Report, ref.Report) {
		add(Mismatch, "Report differs from a new runtime's: "+
			apps.DiffVerify(fmt.Sprintf("%+v", ref.Report), fmt.Sprintf("%+v", got.Report), nil))
	}
	o.Detail = strings.Join(msgs, "; ")
	return o
}

// sound judges a reference on its own: it must succeed with its sets whole.
func sound(ref run) Outcome { return check(run{Result: ref.Result}, ref, nil, false) }

// judge runs arm a on cell c and holds it to ref, the cell's reference;
// a warm arm is held to a new runtime's run instead.
func judge(c Cell, ref run, a Arm) Outcome {
	cfg := a.Config(c)
	if a.Pre == nil {
		return check(ref, c.run(cfg), c.ignore(), false)
	}
	var runs [2]run // a new runtime's, then the reset one's
	for i := range runs {
		rt, err := cool.NewRuntime(cfg)
		if err != nil {
			return Outcome{Unexpected, err.Error()}
		}
		if i == 1 {
			if err := a.Pre(rt); err != nil {
				return Outcome{Mismatch, err.Error()}
			}
			if err := rt.Reset(); err != nil {
				return Outcome{Unexpected, "Reset: " + err.Error()}
			}
		}
		runs[i] = c.runOn(rt)
	}
	return check(runs[0], runs[1], nil, true)
}

// shrink greedily drops any single event whose removal keeps the cell
// failing, until none can go: the plan left is 1-minimal.
func shrink(c Cell, ref run, plan *cool.FaultPlan) (*cool.FaultPlan, Outcome) {
	out := judge(c, ref, faultArm(plan))
	for shrunk := out.Verdict != OK; shrunk; {
		shrunk = false
		for i := 0; i < plan.Len() && !shrunk; i++ {
			if o := judge(c, ref, faultArm(plan.WithoutEvent(i))); o.Verdict != OK {
				plan, out, shrunk = plan.WithoutEvent(i), o, true
			}
		}
	}
	return plan, out
}

// drawReset draws the Reset arm of seed and the cell it runs. The seed
// picks P ∈ {1, 8, 32} and the preceding job's kind in turn, so
// consecutive seeds cover both, and draws the preceding app and version
// and the probe cell at smoke size. The configuration carries the
// preceding version's scheduling knobs, and the probe's version is drawn
// among those a runtime with these knobs accepts. An expired deadline is
// half the preceding job's cycles on an unbounded runtime, so that job
// stops mid-run with tasks queued, blocked and running.
func drawReset(seed int64) (Cell, Arm, error) {
	rng := rand.New(rand.NewSource(seed))
	names := apps.Names()
	draw := func() apps.App { app, _ := apps.Lookup(names[rng.Intn(len(names))]); return app }
	procs, kind := []int{1, 8, 32}[seed/3%3], []string{"plain", "faults", "deadline"}[seed%3]
	pre := draw()
	row := pre.Rows[rng.Intn(len(pre.Rows))]
	probe := draw()
	var ok []string
	for _, r := range probe.Rows {
		if (!r.IgnoreHints || row.IgnoreHints) && (!r.ClusterStealingOnly || row.ClusterStealingOnly) {
			ok = append(ok, r.Name)
		}
	}
	c := Cell{App: probe, Variant: ok[rng.Intn(len(ok))], Size: probe.Sizes["smoke"], Procs: procs}
	cfg := cool.Config{Processors: procs}
	cfg.Sched.IgnoreHints, cfg.Sched.ClusterStealingOnly = row.IgnoreHints, row.ClusterStealingOnly
	runPre := func(rt *cool.Runtime) error { _, err := pre.RunOn(rt, row.Name, pre.Sizes["smoke"]); return err }
	a := Arm{Name: fmt.Sprintf("reset seed=%d after %s/%s %s", seed, pre.Name, row.Name, kind),
		Config: func(Cell) cool.Config { return cfg },
		Pre: func(rt *cool.Runtime) error {
			if runPre(rt) == nil && cfg.Deadline > 0 {
				return errors.New("the preceding job met its expired deadline")
			}
			return nil
		}}
	switch kind {
	case "faults":
		cfg.Faults = cool.RandomFaultPlan(seed, procs, (procs+3)/4, 2+int(seed%4))
	case "deadline":
		rt, err := cool.NewRuntime(cfg)
		if err == nil {
			err = runPre(rt)
		}
		if err != nil {
			return c, a, fmt.Errorf("%s: unbounded run: %w", a.Name, err)
		}
		cfg.Deadline = max(rt.ElapsedCycles()/2, 1)
	}
	return c, a, nil
}

// Run executes the sweep and returns an error naming every failing arm
// (nil when all agree). An unknown app name fails with ErrUnknownApp
// before any cell runs.
func Run(opts Options) error {
	procs, out, names := opts.Procs, opts.Out, opts.Apps
	if out == nil {
		out = io.Discard
	}
	if len(procs) == 0 {
		procs = []int{1, 2, 4, 8, 16}
	}
	if len(names) == 0 {
		names = apps.Names()
	}
	var list []apps.App
	for _, name := range names {
		app, ok := apps.Lookup(name)
		if !ok {
			return fmt.Errorf("%w %q (have %v)", ErrUnknownApp, name, apps.Names())
		}
		list = append(list, app)
	}
	arms := []Arm{policy, armed}
	for i := 1; i <= cmp.Or(opts.NativeRuns, 2); i++ {
		arms = append(arms, Arm{Name: fmt.Sprintf("native run %d", i), Config: native.Config})
	}
	end := opts.Seed + int64(opts.Campaigns)

	var failures []string
	// fail prints a failing arm and the line that replays it: the cells of
	// app at P, with seed's seeded arms alone (none when seed < 0).
	fail := func(cell, arm string, o Outcome, app string, p int, seed int64) {
		failures = append(failures, fmt.Sprintf("%s %s: %v: %s", cell, arm, o.Verdict, o.Detail))
		line := fmt.Sprintf("-xcheck-apps %s -xcheck-procs %d -xcheck-campaigns 0", app, p)
		if seed >= 0 {
			line = fmt.Sprintf("-xcheck-apps %s -xcheck-procs %d -xcheck-seed %d -xcheck-campaigns 1", app, p, seed)
		}
		if opts.Small {
			line += " -xcheck-small"
		}
		fmt.Fprintf(out, "FAIL %s\n  replay: coolbench -xcheck %s\n", failures[len(failures)-1], line)
	}
	pass := func(cell string, failed int) {
		if len(failures) == failed {
			fmt.Fprintf(out, "ok   %s\n", cell)
		}
	}
	for _, app := range list {
		size, last := 0, app.Variants[len(app.Variants)-1]
		if opts.Small {
			size = app.Sizes["smoke"]
		}
		// The Base variant and the most optimized one bracket the
		// scheduling-policy space.
		for _, variant := range slices.Compact([]string{app.Variants[0], last}) {
			for _, p := range procs {
				c, failed := Cell{app, variant, size, p}, len(failures)
				ref := c.run(cool.Config{Processors: p})
				if o := sound(ref); o.Verdict != OK {
					fail(c.String(), "sim reference", o, app.Name, p, -1)
					continue
				}
				cellArms := arms
				if p == 1 {
					cellArms = arms[1:] // no policy arm: one processor has no one to steal from
				}
				for _, a := range cellArms {
					if o := judge(c, ref, a); o.Verdict != OK {
						fail(c.String(), a.Name, o, app.Name, p, -1)
					}
				}
				for s := opts.Seed; variant == last && s < end; s++ {
					plan := faultPlan(s, p)
					if o := judge(c, ref, faultArm(plan)); o.Verdict != OK {
						minPlan, mo := shrink(c, ref, plan)
						o.Detail += fmt.Sprintf("\n  minimal plan (%d of %d events, %v):\n    %s", minPlan.Len(), plan.Len(),
							mo.Verdict, strings.ReplaceAll(minPlan.BuilderString(), "\n", "\n    "))
						fail(c.String(), fmt.Sprintf("faults seed=%d", s), o, app.Name, p, s)
					}
				}
				pass(c.String(), failed)
			}
		}
	}
	for s := opts.Seed; s < end; s++ {
		c, a, err := drawReset(s)
		if !slices.Contains(names, c.App.Name) {
			continue
		}
		failed, o := len(failures), Outcome{Unexpected, fmt.Sprint(err)}
		if err == nil {
			o = judge(c, run{}, a)
		}
		if o.Verdict != OK {
			fail(c.String(), a.Name, o, c.App.Name, c.Procs, s)
		}
		pass(c.String()+" "+a.Name, failed)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d failing arms:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}
