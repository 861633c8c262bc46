package cool_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	cool "github.com/coolrts/cool"
)

// runFaulted executes runSum on 8 processors under the given fault
// plan.
func runFaulted(t *testing.T, plan *cool.FaultPlan, variant func(part *cool.F64, i int) []cool.SpawnOpt) (*cool.Runtime, []int, error) {
	t.Helper()
	return runSum(t, cool.Config{Processors: 8, Faults: plan}, variant)
}

// runWithConfig executes runSum under an arbitrary Config, so the
// deadline tests can add theirs, with each task bound to its part by
// object affinity.
func runWithConfig(t *testing.T, cfg cool.Config) (*cool.Runtime, []int, error) {
	t.Helper()
	return runSum(t, cfg, func(part *cool.F64, i int) []cool.SpawnOpt {
		return []cool.SpawnOpt{cool.ObjectAffinity(part.Base)}
	})
}

// runSum executes a 32-task parallel sum on a runtime built from cfg,
// spawning each task with the options variant returns. It reports the
// runtime (for counters), the per-task completion marks, and Run's
// error.
func runSum(t *testing.T, cfg cool.Config, variant func(part *cool.F64, i int) []cool.SpawnOpt) (*cool.Runtime, []int, error) {
	t.Helper()
	rt, err := cool.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 32
	data := rt.NewF64Pages(tasks*512, 3)
	for i := range data.Data {
		data.Data[i] = 1
	}
	hits := make([]int, tasks)
	runErr := rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for i := 0; i < tasks; i++ {
				part := data.Slice(i*512, (i+1)*512)
				ctx.Spawn("worker", func(c *cool.Ctx) {
					s := 0.0
					for _, v := range c.ReadF64Range(part, 0, part.Len()) {
						s += v
					}
					c.Compute(5000)
					hits[i] += int(s) / part.Len() // 1 per completed run
				}, variant(part, i)...)
			}
		})
	})
	return rt, hits, runErr
}

func checkAllRanOnce(t *testing.T, hits []int) {
	t.Helper()
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("task %d completed %d times, want exactly 1", i, h)
		}
	}
}

func TestServerFailureEveryVariantCompletes(t *testing.T) {
	// Kill P3 mid-run (its first task is still executing, so its queue
	// holds backlog) and check every affinity variant still completes
	// each task exactly once on the survivors.
	const victim = 3
	variants := []struct {
		name   string
		pinned bool // all work targeted at the victim's queue
		opts   func(part *cool.F64, i int) []cool.SpawnOpt
	}{
		{"plain", false, func(part *cool.F64, i int) []cool.SpawnOpt { return nil }},
		{"object", true, func(part *cool.F64, i int) []cool.SpawnOpt {
			return []cool.SpawnOpt{cool.ObjectAffinity(part.Base)}
		}},
		{"taskset", false, func(part *cool.F64, i int) []cool.SpawnOpt {
			return []cool.SpawnOpt{cool.TaskAffinity(part.Base - int64(i*512*8))}
		}},
		{"processor", true, func(part *cool.F64, i int) []cool.SpawnOpt {
			return []cool.SpawnOpt{cool.OnProcessor(victim)}
		}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			plan := cool.NewFaultPlan().FailProcessor(victim, 4000)
			rt, hits, err := runFaulted(t, plan, v.opts)
			if err != nil {
				t.Fatal(err)
			}
			checkAllRanOnce(t, hits)
			rep := rt.Report()
			if v.pinned && rep.Total.Redistributed == 0 {
				t.Fatal("no tasks redistributed off the failed server")
			}
			if v.pinned && rep.Per[victim].Redistributed != rep.Total.Redistributed {
				t.Fatalf("redistribution charged to %+v, want all on P%d", rep.Total.Redistributed, victim)
			}
			// The dead server must not have absorbed work after t=4000:
			// with 5000-cycle tasks it can have completed at most the one
			// it was running.
			if rep.Per[victim].TasksRun > 1 {
				t.Fatalf("failed server ran %d tasks, want <= 1", rep.Per[victim].TasksRun)
			}
		})
	}
}

func TestFaultPlanDeterminism(t *testing.T) {
	// Acceptance criterion: identical seed + plan => byte-identical
	// simulated cycles and performance-monitor snapshots.
	run := func() (int64, cool.Report) {
		plan := cool.NewFaultPlan().
			SlowProcessor(1, 0, 4, 0).
			StallProcessor(2, 2000, 3000).
			FailProcessor(5, 6000).
			DegradeMemory(1, 1000, 4)
		rt, hits, err := runFaulted(t, plan, func(part *cool.F64, i int) []cool.SpawnOpt {
			return []cool.SpawnOpt{cool.ObjectAffinity(part.Base)}
		})
		if err != nil {
			t.Fatal(err)
		}
		checkAllRanOnce(t, hits)
		return rt.ElapsedCycles(), rt.Report()
	}
	c1, r1 := run()
	c2, r2 := run()
	if c1 != c2 {
		t.Fatalf("cycles diverged under faults: %d vs %d", c1, c2)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("perfmon reports diverged under faults:\n%v\nvs\n%v", r1, r2)
	}
	if r1.Total.FaultEvents == 0 {
		t.Fatal("no fault events recorded in counters")
	}
}

func TestRandomFaultPlanSeedStability(t *testing.T) {
	a := cool.RandomFaultPlan(99, 8, 2, 6)
	b := cool.RandomFaultPlan(99, 8, 2, 6)
	if a.Len() != 6 || b.Len() != 6 {
		t.Fatalf("plan lengths %d, %d, want 6", a.Len(), b.Len())
	}
	rt1, _, err1 := runFaulted(t, a, func(part *cool.F64, i int) []cool.SpawnOpt { return nil })
	rt2, _, err2 := runFaulted(t, b, func(part *cool.F64, i int) []cool.SpawnOpt { return nil })
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if rt1.ElapsedCycles() != rt2.ElapsedCycles() {
		t.Fatalf("same random seed gave different runs: %d vs %d", rt1.ElapsedCycles(), rt2.ElapsedCycles())
	}
}

func TestChaosPlanSurface(t *testing.T) {
	p := cool.RandomFaultPlan(42, 8, 2, 12)
	if p.Len() != 12 {
		t.Fatalf("Len = %d, want 12", p.Len())
	}
	q := cool.RandomFaultPlan(42, 8, 2, 12)
	if p.BuilderString() != q.BuilderString() {
		t.Fatal("same seed produced different chaos plans")
	}
	s := p.BuilderString()
	if !strings.HasPrefix(s, "cool.NewFaultPlan()") {
		t.Fatalf("BuilderString does not start with the constructor: %q", s)
	}
	shrunk := p.WithoutEvent(0)
	if shrunk.Len() != 11 || p.Len() != 12 {
		t.Fatalf("WithoutEvent mutated the original or kept the event: %d/%d", shrunk.Len(), p.Len())
	}
	// A hand-built plan round-trips through BuilderString recognizably.
	h := cool.NewFaultPlan().SlowProcessor(4, 10, 3, 500).StallProcessor(2, 50, 7).
		FailProcessor(6, 900).DegradeMemory(1, 100, 3)
	bs := h.BuilderString()
	for _, want := range []string{"SlowProcessor(4, 10, 3, 500)", "StallProcessor(2, 50, 7)",
		"FailProcessor(6, 900)", "DegradeMemory(1, 100, 3)"} {
		if !strings.Contains(bs, want) {
			t.Fatalf("BuilderString %q missing %q", bs, want)
		}
	}
}

// plantedPanic is the value a test task body panics with.
const plantedPanic = "planted panic"

// runPanicking spawns tasks tasks named name on a runtime built from
// cfg and returns Run's *TaskPanicError. The spawns are numbered in the
// spawning code, in the simulator's deterministic spawn order; the body
// of spawn nth panics with plantedPanic at its top, the others compute.
func runPanicking(t *testing.T, cfg cool.Config, name string, tasks, nth int) *cool.TaskPanicError {
	t.Helper()
	rt, err := cool.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for i := 0; i < tasks; i++ {
				ctx.Spawn(name, func(c *cool.Ctx) {
					if i == nth {
						panic(plantedPanic)
					}
					c.Compute(1000)
				})
			}
		})
	})
	var pe *cool.TaskPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("nth %d: err = %v (%T), want *cool.TaskPanicError", nth, err, err)
	}
	return pe
}

// TestInjectedTaskPanicTyped: a panic planted at the top of the 8th of
// 32 spawns' bodies fails Run with a *cool.TaskPanicError carrying the
// planted value, and strikes the same processor at the same simulated
// cycle every time the program runs.
func TestInjectedTaskPanicTyped(t *testing.T) {
	cfg := cool.Config{Processors: 8}
	a, b := runPanicking(t, cfg, "worker", 32, 7), runPanicking(t, cfg, "worker", 32, 7)
	if a.Task != "worker" || a.Value != plantedPanic {
		t.Fatalf("panic error = %+v, want the planted panic in worker", a)
	}
	if a.Proc != b.Proc || a.Time != b.Time {
		t.Fatalf("panic not deterministic: P%d@%d vs P%d@%d", a.Proc, a.Time, b.Proc, b.Time)
	}
}

// TestNaturalTaskPanicTyped: a task body that panics fails Run with a
// *cool.TaskPanicError carrying the task, the panic value and the
// stack.
func TestNaturalTaskPanicTyped(t *testing.T) {
	rt := newRT(t, 4)
	err := rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			ctx.Spawn("bad", func(c *cool.Ctx) {
				c.Compute(250)
				panic("invariant violated")
			})
		})
	})
	var pe *cool.TaskPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *cool.TaskPanicError", err, err)
	}
	if pe.Task != "bad" || pe.Time < 250 {
		t.Fatalf("panic error = %+v, want a panic in bad at t>=250", pe)
	}
	if !strings.Contains(err.Error(), "invariant violated") || pe.Stack == "" {
		t.Fatalf("error lost panic payload or stack: %v", err)
	}
}

// TestDeadlineExceededTypedError: a deadline below what the program
// needs stops the run with a progress snapshot, queue depths and clocks
// for every server, on a healthy parallel sum and on a livelocked spin
// that only the deadline can end.
func TestDeadlineExceededTypedError(t *testing.T) {
	sum := func(t *testing.T, cfg cool.Config) error {
		_, _, err := runWithConfig(t, cfg)
		return err
	}
	spin := func(t *testing.T, cfg cool.Config) error {
		rt, err := cool.NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rt.Run(func(ctx *cool.Ctx) {
			ctx.WaitFor(func() {
				ctx.Spawn("spin", func(c *cool.Ctx) {
					for { // livelock: only the deadline can end the run
						c.Compute(1000)
					}
				})
			})
		})
	}
	for _, tc := range []struct {
		name string
		cfg  cool.Config
		run  func(*testing.T, cool.Config) error
	}{
		{"sum", cool.Config{Processors: 8, Deadline: 3000}, sum},
		{"spin", cool.Config{Processors: 2, Deadline: 100_000}, spin},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(t, tc.cfg)
			var de *cool.DeadlineExceededError
			if !errors.As(err, &de) {
				t.Fatalf("err = %v (%T), want *cool.DeadlineExceededError", err, err)
			}
			if de.Deadline != tc.cfg.Deadline || de.Time <= de.Deadline {
				t.Fatalf("DeadlineExceededError = %+v, want Time past Deadline %d", de, tc.cfg.Deadline)
			}
			procs := tc.cfg.Processors
			if len(de.QueueDepths) != procs || len(de.Clocks) != procs {
				t.Fatalf("snapshot sizes = %d queues, %d clocks, want %d/%d", len(de.QueueDepths), len(de.Clocks), procs, procs)
			}
			if de.LiveTasks == 0 {
				t.Fatal("LiveTasks = 0, but the run was cut off mid-flight")
			}
			if want := fmt.Sprintf("deadline %d exceeded", tc.cfg.Deadline); !strings.Contains(err.Error(), want) {
				t.Fatalf("unhelpful message: %s", err.Error())
			}
		})
	}
}

func TestUnreachedDeadlineIsBitIdentical(t *testing.T) {
	// A generous deadline must not perturb the simulation at all.
	rt1, hits, err := runWithConfig(t, cool.Config{Processors: 8})
	if err != nil {
		t.Fatal(err)
	}
	checkAllRanOnce(t, hits)
	rt2, hits2, err := runWithConfig(t, cool.Config{Processors: 8, Deadline: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	checkAllRanOnce(t, hits2)
	if rt1.ElapsedCycles() != rt2.ElapsedCycles() {
		t.Fatalf("deadline changed cycles: %d vs %d", rt1.ElapsedCycles(), rt2.ElapsedCycles())
	}
}

func TestRetryAndDeadlineConfigValidation(t *testing.T) {
	_, err := cool.NewRuntime(cool.Config{Processors: 4, Deadline: -1})
	if err == nil || !strings.Contains(err.Error(), "Deadline") {
		t.Fatalf("err = %v, want Config.Deadline validation error", err)
	}
	for _, d := range []int64{0, 1, 1 << 40} {
		if _, err := cool.NewRuntime(cool.Config{Processors: 4, Deadline: d}); err != nil {
			t.Fatalf("Deadline %d rejected: %v", d, err)
		}
	}
}

func TestMemoryDegradationSlowsRun(t *testing.T) {
	cycles := func(plan *cool.FaultPlan) int64 {
		rt, hits, err := runFaulted(t, plan, func(part *cool.F64, i int) []cool.SpawnOpt { return nil })
		if err != nil {
			t.Fatal(err)
		}
		checkAllRanOnce(t, hits)
		return rt.ElapsedCycles()
	}
	healthy := cycles(nil)
	degraded := cycles(cool.NewFaultPlan().DegradeMemory(0, 0, 8))
	if degraded <= healthy {
		t.Fatalf("degraded memory ran in %d cycles, healthy %d; want slower", degraded, healthy)
	}
}

func TestInvalidConfigReturnsError(t *testing.T) {
	bad := []cool.Config{
		{Processors: 0},
		{Processors: -4},
		{Processors: 4, Sched: cool.SchedPolicy{QueueArraySize: -1}},
		{Processors: 4, TraceCapacity: -1},
	}
	for _, cfg := range bad {
		if _, err := cool.NewRuntime(cfg); err == nil {
			t.Fatalf("NewRuntime(%+v) accepted invalid config", cfg)
		}
	}
}

func TestInvalidFaultPlanRejected(t *testing.T) {
	bad := []*cool.FaultPlan{
		cool.NewFaultPlan().SlowProcessor(9, 0, 4, 0),  // proc out of range
		cool.NewFaultPlan().SlowProcessor(1, 0, 1, 0),  // factor < 2
		cool.NewFaultPlan().StallProcessor(1, -5, 100), // negative time
		cool.NewFaultPlan().StallProcessor(1, 0, 0),    // zero stall
		cool.NewFaultPlan().DegradeMemory(7, 0, 4),     // cluster out of range
		func() *cool.FaultPlan { // no survivors
			p := cool.NewFaultPlan()
			for i := 0; i < 8; i++ {
				p.FailProcessor(i, 100)
			}
			return p
		}(),
	}
	for i, plan := range bad {
		_, err := cool.NewRuntime(cool.Config{Processors: 8, Faults: plan})
		if err == nil || !strings.Contains(err.Error(), "Faults") {
			t.Fatalf("plan %d: err = %v, want Config.Faults validation error", i, err)
		}
	}
}

func TestBadAllocationSurfacesFromRun(t *testing.T) {
	rt := newRT(t, 4)
	_ = rt.NewF64(0, 0) // invalid, but must not panic
	err := rt.Run(func(ctx *cool.Ctx) { ctx.Compute(10) })
	if err == nil || !strings.Contains(err.Error(), "allocation size") {
		t.Fatalf("err = %v, want allocation-size setup error", err)
	}
}

func TestBadMigrateSurfacesFromRun(t *testing.T) {
	rt := newRT(t, 4)
	arr := rt.NewF64Pages(4096, 0)
	rt.Migrate(arr.Base, -8, 1) // invalid, but must not panic
	err := rt.Run(func(ctx *cool.Ctx) { ctx.Compute(10) })
	if err == nil || !strings.Contains(err.Error(), "must be positive") {
		t.Fatalf("err = %v, want migrate setup error", err)
	}
}
