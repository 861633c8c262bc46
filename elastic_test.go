package cool_test

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	cool "github.com/coolrts/cool"
)

// TestElasticConfigRejectedOnSim pins the validation surface: the
// elastic-pool and SLO knobs are native-only, and the simulator must
// say so at NewRuntime rather than silently ignore them.
func TestElasticConfigRejectedOnSim(t *testing.T) {
	cases := []struct {
		name string
		cfg  cool.Config
		want string
	}{
		{"maxprocs", cool.Config{Processors: 2, MaxProcessors: 4}, "MaxProcessors"},
		{"shed", cool.Config{Processors: 2, Shed: &cool.ShedPolicy{}}, "Shed"},
	}
	for _, tc := range cases {
		if _, err := cool.NewRuntime(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewRuntime = %v, want error mentioning %q and BackendNative", tc.name, err, tc.want)
		}
	}
}

// TestElasticCallsOnSim checks the degraded behavior of the elastic
// API on the simulator: errors from the mutating calls, fixed
// Processors from PoolSize, and a nil timeline.
func TestElasticCallsOnSim(t *testing.T) {
	rt, err := cool.NewRuntime(cool.Config{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddWorkers(1); err == nil {
		t.Error("AddWorkers on the simulator succeeded")
	}
	if _, err := rt.Retire(1); err == nil {
		t.Error("Retire on the simulator succeeded")
	}
	if err := rt.RetireWorkers(1); err == nil {
		t.Error("RetireWorkers on the simulator succeeded")
	}
	if got := rt.PoolSize(); got != 4 {
		t.Errorf("PoolSize = %d, want the configured 4", got)
	}
	if evs := rt.PoolEvents(); len(evs) != 0 {
		t.Errorf("PoolEvents on the simulator = %v, want none", evs)
	}
}

// TestPublicElasticScale drives the public grow/retire surface on the
// native backend and checks the run report: a capacity-sized Per table
// with counters for the workers added mid-run, and a complete
// add/drain timeline in completion order.
func TestPublicElasticScale(t *testing.T) {
	rt, err := cool.NewRuntime(cool.Config{
		Processors:    2,
		MaxProcessors: 6,
		Backend:       cool.BackendNative,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	const n = 300
	err = rt.Run(func(ctx *cool.Ctx) {
		ids, err := rt.AddWorkers(4)
		if err != nil {
			t.Errorf("AddWorkers: %v", err)
			return
		}
		if len(ids) != 4 || rt.PoolSize() != 6 {
			t.Errorf("AddWorkers ids=%v PoolSize=%d, want 4 ids and size 6", ids, rt.PoolSize())
			return
		}
		ctx.WaitFor(func() {
			for i := 0; i < n; i++ {
				i := i
				ctx.Spawn("t", func(*cool.Ctx) {
					ran.Add(1)
					time.Sleep(2 * time.Microsecond)
				}, cool.OnProcessor(i%6))
			}
		})
		if _, err := rt.Retire(4); err != nil {
			t.Errorf("Retire: %v", err)
			return
		}
		for rt.PoolSize() > 2 {
			time.Sleep(20 * time.Microsecond)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran.Load() != n {
		t.Fatalf("ran %d of %d tasks", ran.Load(), n)
	}
	rep := rt.Report()
	if rep.Processors != 2 || rep.MaxProcessors != 6 || len(rep.Per) != 6 {
		t.Fatalf("report shape: Processors=%d MaxProcessors=%d len(Per)=%d, want 2/6/6",
			rep.Processors, rep.MaxProcessors, len(rep.Per))
	}
	if rep.SetSplits != 0 {
		t.Fatalf("SetSplits=%d want 0", rep.SetSplits)
	}
	var addedRan int64
	for id := 2; id < 6; id++ {
		addedRan += rep.Per[id].TasksRun
	}
	if addedRan == 0 {
		t.Fatal("per-worker rows for mid-run-added workers recorded no tasks")
	}
	adds, drains := 0, 0
	last := int64(-1)
	for _, ev := range rep.PoolEvents {
		if ev.TimeNS < last {
			t.Fatalf("PoolEvents out of order: %+v", rep.PoolEvents)
		}
		last = ev.TimeNS
		switch ev.Kind {
		case "add":
			adds++
		case "drain":
			drains++
			if ev.DurationNS < 0 {
				t.Fatalf("drain event %+v has negative latency", ev)
			}
		default:
			t.Fatalf("unexpected pool event kind %q", ev.Kind)
		}
	}
	if adds != 4 || drains != 4 {
		t.Fatalf("PoolEvents: %d adds, %d drains, want 4 each", adds, drains)
	}
}

// TestWithDeadlineShedsOnBothBackends spawns half the tasks with an
// already-expired deadline on each backend: the expired half must shed
// (counted as deadline misses, scope still released) and the rest run.
// On the simulator the shed is deterministic; on the native backend it
// requires Config.Shed.
func TestWithDeadlineShedsOnBothBackends(t *testing.T) {
	const n = 40
	run := func(t *testing.T, cfg cool.Config) cool.Report {
		t.Helper()
		rt, err := cool.NewRuntime(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ran atomic.Int64
		err = rt.Run(func(ctx *cool.Ctx) {
			ctx.WaitFor(func() {
				for i := 0; i < n; i++ {
					ctx.Spawn("late", func(*cool.Ctx) { ran.Add(1) }, cool.WithDeadline(1))
					ctx.Spawn("fresh", func(*cool.Ctx) { ran.Add(1) },
						cool.WithDeadline(time.Hour.Nanoseconds()))
				}
			})
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if ran.Load() != n {
			t.Fatalf("ran %d tasks, want %d (only the in-deadline half)", ran.Load(), n)
		}
		return rt.Report()
	}
	t.Run("sim", func(t *testing.T) {
		rep := run(t, cool.Config{Processors: 2})
		if rep.Total.DeadlineMisses != n || rep.Total.TasksShed != n {
			t.Fatalf("DeadlineMisses=%d TasksShed=%d, want %d each",
				rep.Total.DeadlineMisses, rep.Total.TasksShed, n)
		}
	})
	t.Run("native", func(t *testing.T) {
		rep := run(t, cool.Config{
			Processors: 2,
			Backend:    cool.BackendNative,
			Shed:       &cool.ShedPolicy{},
		})
		if rep.Total.DeadlineMisses != n || rep.Total.TasksShed != n {
			t.Fatalf("DeadlineMisses=%d TasksShed=%d, want %d each",
				rep.Total.DeadlineMisses, rep.Total.TasksShed, n)
		}
	})
}

// TestWithPrioritySurvivesOverload pins the public SLO contract on the
// native backend: under a backlog far past the watermark, every
// priority-7 task still runs while the lowest class takes all the
// shedding.
func TestWithPrioritySurvivesOverload(t *testing.T) {
	rt, err := cool.NewRuntime(cool.Config{
		Processors: 1,
		Backend:    cool.BackendNative,
		Shed:       &cool.ShedPolicy{QueueHighWater: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	const low, high = 300, 30
	var ranLow, ranHigh atomic.Int64
	err = rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for i := 0; i < low; i++ {
				ctx.Spawn("low", func(*cool.Ctx) {
					ranLow.Add(1)
					time.Sleep(100 * time.Microsecond)
				})
			}
			for i := 0; i < high; i++ {
				ctx.Spawn("high", func(*cool.Ctx) {
					ranHigh.Add(1)
					time.Sleep(100 * time.Microsecond)
				}, cool.WithPriority(7))
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := rt.Report()
	if ranHigh.Load() != high {
		t.Fatalf("only %d of %d priority-7 tasks ran", ranHigh.Load(), high)
	}
	if rep.Total.TasksShed == 0 {
		t.Fatal("overload shed nothing")
	}
	if got := ranLow.Load() + rep.Total.TasksShed; got != low {
		t.Fatalf("low ran %d + shed %d = %d, want %d", ranLow.Load(), rep.Total.TasksShed, got, low)
	}
}

// TestChurnFaultPlanPublicAPI round-trips the churn builders through
// validation, BuilderString, ChurnAdds, and the simulator's rejection.
func TestChurnFaultPlanPublicAPI(t *testing.T) {
	p := cool.NewFaultPlan().AddWorker(1000).Drain(1, 2000).AddWorker(3000)
	if got := p.ChurnAdds(); got != 2 {
		t.Fatalf("ChurnAdds = %d, want 2", got)
	}
	s := p.BuilderString()
	for _, want := range []string{"AddWorker(1000)", "Drain(1, 2000)", "AddWorker(3000)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("BuilderString %q missing %q", s, want)
		}
	}
	// The simulator has no pool: churn events must be rejected.
	_, err := cool.NewRuntime(cool.Config{Processors: 2, Faults: p})
	if err == nil || !strings.Contains(err.Error(), "BackendNative") {
		t.Fatalf("sim NewRuntime with churn plan = %v, want BackendNative rejection", err)
	}
}

// TestChurnFaultPlanNative runs a plan-driven grow and drain end to
// end on the native backend: the timekeeper arms the AddWorker, the
// drain retires the worker cleanly, and the report shows both.
func TestChurnFaultPlanNative(t *testing.T) {
	rt, err := cool.NewRuntime(cool.Config{
		Processors:    2,
		MaxProcessors: 3,
		Backend:       cool.BackendNative,
		Faults:        cool.NewFaultPlan().AddWorker(100_000).Drain(1, 600_000),
	})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	const n = 600
	err = rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for i := 0; i < n; i++ {
				ctx.Spawn("w", func(*cool.Ctx) {
					ran.Add(1)
					time.Sleep(10 * time.Microsecond)
				})
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran.Load() != n {
		t.Fatalf("ran %d of %d tasks", ran.Load(), n)
	}
	rep := rt.Report()
	if rep.SetSplits != 0 {
		t.Fatalf("SetSplits=%d want 0", rep.SetSplits)
	}
	adds, drains := 0, 0
	for _, ev := range rep.PoolEvents {
		switch ev.Kind {
		case "add":
			adds++
		case "drain":
			drains++
		}
	}
	if adds != 1 || drains != 1 {
		t.Fatalf("PoolEvents: %d adds, %d drains (events %+v), want 1 each", adds, drains, rep.PoolEvents)
	}
}
