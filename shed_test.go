package cool_test

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	cool "github.com/coolrts/cool"
)

// TestElasticConfigRejectedOnSim pins the validation surface: the SLO
// knob is native-only, and the simulator must say so at NewRuntime
// rather than silently ignore it.
func TestElasticConfigRejectedOnSim(t *testing.T) {
	cases := []struct {
		name string
		cfg  cool.Config
		want string
	}{
		{"shed", cool.Config{Processors: 2, Shed: &cool.ShedPolicy{}}, "Shed"},
	}
	for _, tc := range cases {
		if _, err := cool.NewRuntime(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewRuntime = %v, want error mentioning %q and BackendNative", tc.name, err, tc.want)
		}
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
