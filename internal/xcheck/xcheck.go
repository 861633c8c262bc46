// Package xcheck is the differential cross-validation harness: it runs
// every registered application on both execution backends and fails if
// they disagree. Each (app, variant, processor-count) cell runs a
// simulator reference, then a simulator run under a different steal
// seed, Options.NativeRuns plain native runs and an armed one — and
// every run must match the reference token for token (schedule-dependent
// tokens excepted at P>1), run the same number of tasks, and keep
// task-affinity sets whole. An app's last variant is its most
// locality-optimised one; phaseflip's flips cluster-only stealing
// mid-run, so the sweep also checks that flag on both backends.
//
// The harness is the repo's ground-truth check that the native backend
// implements the same scheduling semantics as the simulator: a placement
// bug, a lost wakeup, a split set, or a dropped task shows up as a
// mismatch in some cell. It backs `coolbench -xcheck` and the CI smoke
// job.
package xcheck

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
)

// Options configures one differential sweep.
type Options struct {
	// Procs lists the machine sizes to cross-check (default 1, 2, 4, 8, 16).
	Procs []int
	// Small shrinks every app to a smoke-test workload.
	Small bool
	// Apps restricts the sweep to the named applications (default: all).
	Apps []string
	// NativeRuns is how many times each cell runs the plain native arm
	// (default 2). Real goroutine interleavings differ run to run, and a
	// bug that shows once in a few dozen runs needs a count to match.
	NativeRuns int
	// Out receives one "ok"/"FAIL" line per cell (default: discard).
	Out io.Writer
}

// Run executes the sweep and returns an error describing every failed
// cell (nil when all cells pass).
func Run(opts Options) error {
	procs := opts.Procs
	if len(procs) == 0 {
		procs = []int{1, 2, 4, 8, 16}
	}
	out := opts.Out
	if out == nil {
		out = io.Discard
	}
	nativeRuns := opts.NativeRuns
	if nativeRuns <= 0 {
		nativeRuns = 2
	}
	names := opts.Apps
	if len(names) == 0 {
		names = apps.Names()
	}
	var failures []string
	for _, name := range names {
		app, ok := apps.Lookup(name)
		if !ok {
			return fmt.Errorf("xcheck: unknown app %q (have %v)", name, apps.Names())
		}
		size := 0
		if opts.Small {
			size = app.Sizes["smoke"]
		}
		// The Base variant and the most optimized one bracket the
		// scheduling-policy space; the middle variants add no new
		// placement mechanisms.
		variants := []string{app.Variants[0]}
		if last := app.Variants[len(app.Variants)-1]; last != variants[0] {
			variants = append(variants, last)
		}
		for _, variant := range variants {
			for _, p := range procs {
				cell := fmt.Sprintf("%s %s P=%d", name, variant, p)
				if msgs := checkCell(app, variant, p, size, nativeRuns); len(msgs) > 0 {
					for _, m := range msgs {
						failures = append(failures, cell+": "+m)
					}
					fmt.Fprintf(out, "FAIL %s: %s\n", cell, strings.Join(msgs, "; "))
				} else {
					fmt.Fprintf(out, "ok   %s\n", cell)
				}
			}
		}
	}
	// The SLO cells: the per-task deadline rule on both backends,
	// differentially validated against each other.
	for _, p := range procs {
		cell := fmt.Sprintf("slo synthetic P=%d", p)
		if msgs := checkSLOCell(p); len(msgs) > 0 {
			for _, m := range msgs {
				failures = append(failures, cell+": "+m)
			}
			fmt.Fprintf(out, "FAIL %s: %s\n", cell, strings.Join(msgs, "; "))
		} else {
			fmt.Fprintf(out, "ok   %s\n", cell)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("xcheck: %d mismatches:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

// checkSLOCell differentially validates the per-task deadline rule at a
// fixed P: half the tasks carry WithDeadline(1), expired at dispatch on
// both clock scales, and half a deadline neither clock reaches. Both
// backends must shed exactly the expired half — the same result sum,
// the same TasksRun, the same DeadlineMisses — so a shed task counted
// as run, or a deadline checked on one backend only, shows as a
// mismatch.
func checkSLOCell(procs int) []string {
	const n = 256
	run := func(cfg cool.Config) (int64, cool.Report, error) {
		rt, err := cool.NewRuntime(cfg)
		if err != nil {
			return 0, cool.Report{}, err
		}
		var sum atomic.Int64
		err = rt.Run(func(ctx *cool.Ctx) {
			ctx.WaitFor(func() {
				for i := 0; i < n; i++ {
					i := i
					deadline := int64(1 << 60)
					if i%2 == 0 {
						deadline = 1
					}
					ctx.Spawn("slo", func(*cool.Ctx) { sum.Add(int64(i*i + 1)) },
						cool.WithDeadline(deadline))
				}
			})
		})
		return sum.Load(), rt.Report(), err
	}
	var msgs []string
	simSum, simRep, err := run(cool.Config{Processors: procs})
	if err != nil {
		return []string{"sim: " + err.Error()}
	}
	natSum, natRep, err := run(cool.Config{Processors: procs, Backend: cool.BackendNative})
	if err != nil {
		return []string{"native: " + err.Error()}
	}
	if simSum != natSum {
		msgs = append(msgs, fmt.Sprintf("result sum: sim %d, native %d", simSum, natSum))
	}
	if simRep.Total.TasksRun != natRep.Total.TasksRun {
		msgs = append(msgs, fmt.Sprintf("tasks run: sim %d, native %d",
			simRep.Total.TasksRun, natRep.Total.TasksRun))
	}
	for _, b := range []struct {
		label string
		rep   cool.Report
	}{{"sim", simRep}, {"native", natRep}} {
		if b.rep.Total.DeadlineMisses != n/2 {
			msgs = append(msgs, fmt.Sprintf("%s: %d deadline misses, want %d", b.label, b.rep.Total.DeadlineMisses, n/2))
		}
		if b.rep.SetSplits != 0 {
			msgs = append(msgs, fmt.Sprintf("%s: %d set splits", b.label, b.rep.SetSplits))
		}
	}
	return msgs
}

// checkCell runs one (app, variant, procs) cell: a simulator reference,
// then a seed-perturbed simulator run, nativeRuns plain native runs and
// the armed native run, each compared against the reference.
func checkCell(app apps.App, variant string, procs, size, nativeRuns int) []string {
	ref, err := app.RunCfg(cool.Config{Processors: procs}, variant, size)
	if err != nil {
		return []string{"sim reference: " + err.Error()}
	}
	var msgs []string
	if ref.Report.SetSplits != 0 {
		msgs = append(msgs, fmt.Sprintf("sim reference: %d set splits", ref.Report.SetSplits))
	}
	ignore := app.ScheduleTokens
	if procs == 1 {
		ignore = nil // serial order is identical on both backends
	}
	type arm struct {
		label string
		cfg   cool.Config
	}
	// A different steal seed perturbs victim choice but must not change
	// results beyond the declared schedule-dependent tokens.
	arms := []arm{{"sim seed=7", cool.Config{Processors: procs, Seed: 7}}}
	// Plain native runs: real goroutine interleavings differ run to run,
	// so one passing run is weak evidence.
	for i := 1; i <= nativeRuns; i++ {
		arms = append(arms, arm{fmt.Sprintf("native run %d", i), cool.Config{Processors: procs, Backend: cool.BackendNative}})
	}
	// An armed native run: a generous deadline that cannot fire, so the
	// deadline machinery (its timer goroutine, the stop checks) must
	// not perturb results.
	arms = append(arms, arm{"native armed", cool.Config{
		Processors: procs,
		Backend:    cool.BackendNative,
		Deadline:   30_000_000_000, // 30s wall clock: far beyond any cell
	}})
	for _, arm := range arms {
		res, err := app.RunCfg(arm.cfg, variant, size)
		if err != nil {
			msgs = append(msgs, arm.label+": "+err.Error())
			continue
		}
		for _, m := range check(ref, res, ignore) {
			msgs = append(msgs, arm.label+": "+m)
		}
	}
	return msgs
}

// check compares one arm's result against the cell's reference: the
// Verify tokens outside ignore, the task count, whole task-affinity
// sets, and — no app sets a deadline — no deadline missed.
func check(ref, res apps.Result, ignore map[string]bool) []string {
	var msgs []string
	if d := apps.DiffVerify(ref.Verify, res.Verify, ignore); d != "" {
		msgs = append(msgs, d)
	}
	if got, want := res.Report.Total.TasksRun, ref.Report.Total.TasksRun; got != want {
		msgs = append(msgs, fmt.Sprintf("ran %d tasks, reference ran %d", got, want))
	}
	if res.Report.SetSplits != 0 {
		msgs = append(msgs, fmt.Sprintf("%d set splits", res.Report.SetSplits))
	}
	if m := res.Report.Total.DeadlineMisses; m != 0 {
		msgs = append(msgs, fmt.Sprintf("%d deadline misses with no deadline set", m))
	}
	return msgs
}
