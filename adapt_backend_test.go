package cool_test

import (
	"testing"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
)

// TestCounterSnapshotConsistent asserts Runtime.CounterSnapshot — the
// adaptive controller's counter-read API — reports the same quantities
// as the full perfmon Report on both backends after a run: the
// cumulative columns match the summed per-processor rows exactly,
// Completed covers every executed or shed task, the queue gauge reads
// zero on a drained machine, and the pool gauge reads the worker count.
func TestCounterSnapshotConsistent(t *testing.T) {
	const procs, tasks = 4, 300
	for _, be := range backends {
		be := be
		t.Run(be.name, func(t *testing.T) {
			r := runWorkload(t, be.b, procs, tasks)
			rt := lastRuntime
			if rt == nil {
				t.Fatal("capture hook did not observe the runtime")
			}
			s := rt.CounterSnapshot()
			total := r.Total

			cols := []struct {
				name      string
				snap, rep int64
			}{
				{"StealTries", s.StealTries, total.StealTries},
				{"FailedSteals", s.FailedSteals, total.FailedSteals},
				{"StealsLocal", s.StealsLocal, total.StealsLocal},
				{"StealsRemote", s.StealsRemote, total.StealsRemote},
				{"SetSteals", s.SetSteals, total.SetSteals},
				{"TargetedWakes", s.TargetedWakes, total.TargetedWakes},
				{"BroadcastWakes", s.BroadcastWakes, total.BroadcastWakes},
				{"LockContention", s.LockContention, total.LockContention},
				{"TasksShed", s.TasksShed, total.TasksShed},
				{"DeadlineMisses", s.DeadlineMisses, total.DeadlineMisses},
			}
			for _, c := range cols {
				if c.snap != c.rep {
					t.Errorf("%s: snapshot %d != report %d", c.name, c.snap, c.rep)
				}
			}
			if s.Completed != total.TasksRun+total.TasksShed {
				t.Errorf("Completed = %d, want TasksRun+TasksShed = %d",
					s.Completed, total.TasksRun+total.TasksShed)
			}
			if s.Queued != 0 {
				t.Errorf("Queued = %d after a drained run, want 0", s.Queued)
			}
			if s.Workers != int64(procs) {
				t.Errorf("Workers = %d, want %d", s.Workers, procs)
			}
			if s.Parked < 0 || s.Parked > int64(procs) {
				t.Errorf("Parked = %d outside [0,%d]", s.Parked, procs)
			}

			// The epoch-delta view: a second reading minus the first must
			// be all-zero on the cumulative columns of an idle machine.
			d := rt.CounterSnapshot().Delta(s)
			if d.StealTries != 0 || d.FailedSteals != 0 || d.Completed != 0 {
				t.Errorf("idle-machine delta not zero: %+v", d)
			}
		})
	}
}

// TestAdaptWarmStart asserts AdaptPolicy.Start seeds the controller:
// the initial and (with no epochs elapsing) final policy vectors equal
// the warm state, and the empty decision trace replays to it. Adapt is
// simulator-only, so the one subtest pins BackendSim.
func TestAdaptWarmStart(t *testing.T) {
	warm := cool.AdaptState{ClusterOnly: true}
	t.Run("sim", func(t *testing.T) {
		rt, err := cool.NewRuntime(cool.Config{
			Processors: 4,
			Backend:    cool.BackendSim,
			Adapt:      &cool.AdaptPolicy{Epoch: 1 << 40, Start: &warm},
		})
		if err != nil {
			t.Fatal(err)
		}
		done := rt.NewI64(1, 0)
		if err := rt.Run(func(ctx *cool.Ctx) {
			ctx.Spawn("task", func(c *cool.Ctx) { c.AddI64(done, 0, 1) })
		}); err != nil {
			t.Fatal(err)
		}
		init, ok := rt.AdaptInitialState()
		if !ok || init != warm {
			t.Fatalf("AdaptInitialState = %+v, %v; want warm state %+v", init, ok, warm)
		}
		st, ok := rt.AdaptState()
		if !ok || st != warm {
			t.Fatalf("AdaptState = %+v, %v; want warm state %+v", st, ok, warm)
		}
		if got := cool.ReplayAdaptDecisions(init, rt.Report().Decisions); got != st {
			t.Fatalf("replay = %+v, want %+v", got, st)
		}
	})
}

// TestAdaptiveFloor is the adaptive controller's quality gate, on the
// simulator where cycle counts are exact: every registered app (most
// locality-optimised variant, default size, P=16) runs a flat-stealing
// arm, a cluster-only arm and the adaptive controller, the latter twice
// with the second repetition warm-started from the policy the first
// learned — so the score covers both the cold run (paying the
// observation epochs) and the steady state a policy-persisting runtime
// reaches. The mean adaptive run must reach 0.995x the best static arm
// on every app and 1.25x on the phase-shifting one (measured minimum
// 0.9990 on barneshut, 1.2960 on phaseflip — EXPERIMENTS AD1), and
// replaying each repetition's decision trace over its initial policy
// must reconstruct the controller's final state. Only simulated cycles
// are compared; the per-app ratio and decision counts are logged.
func TestAdaptiveFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("28 default-size simulator runs")
	}
	// Short enough that each phaseflip phase spans several epochs, and
	// that the first evaluation lands before an app's opening steal
	// burst has seeded many wrong-cluster subtrees.
	const procs, epoch, reps = 16, 10_000, 2
	for _, name := range apps.Names() {
		app, _ := apps.Lookup(name)
		variant := app.Variants[len(app.Variants)-1]
		t.Run(name, func(t *testing.T) {
			cycles := func(cfg cool.Config) int64 {
				t.Helper()
				cfg.Processors = procs
				res, err := app.RunCfg(cfg, variant, 0)
				if err != nil {
					t.Fatal(err)
				}
				return res.Cycles
			}
			best := cycles(cool.Config{})
			if c := cycles(cool.Config{Sched: cool.SchedPolicy{ClusterStealingOnly: true}}); c < best {
				best = c
			}
			var warm *cool.AdaptState
			var sum int64
			var decisions [reps]int
			for rep := 0; rep < reps; rep++ {
				sum += cycles(cool.Config{Adapt: &cool.AdaptPolicy{Epoch: epoch, Start: warm}})
				rt := lastRuntime
				// Replay from the runtime's actual starting vector: variants
				// may force scheduling knobs on top of the passed config,
				// and a warm start seeds the previous repetition's state.
				init, okInit := rt.AdaptInitialState()
				final, okFinal := rt.AdaptState()
				if !okInit || !okFinal {
					t.Fatalf("rep %d: adaptive run exposes no controller state", rep)
				}
				ds := rt.Report().Decisions
				if got := cool.ReplayAdaptDecisions(init, ds); got != final {
					t.Errorf("rep %d: decision trace replays to %+v, controller ended on %+v", rep, got, final)
				}
				decisions[rep] = len(ds)
				warm = &final
			}
			ratio := float64(best) / float64(sum/reps)
			floor := 0.995
			if name == "phaseflip" {
				floor = 1.25
			}
			t.Logf("best static / mean adaptive = %.4f (%d vs %d cycles), decisions per rep (cold first) %v",
				ratio, best, sum/reps, decisions)
			if ratio < floor {
				t.Errorf("adaptive is %.4fx the best static arm, floor %.3f", ratio, floor)
			}
		})
	}
}

// lastRuntime captures the most recent runtime runWorkload constructed,
// via the package capture hook, so tests can reach non-Report accessors.
var lastRuntime *cool.Runtime

func TestMain(m *testing.M) {
	restore := cool.CaptureRuntime(func(rt *cool.Runtime) { lastRuntime = rt })
	defer restore()
	m.Run()
}
