package cool_test

import (
	"sync/atomic"
	"testing"
	"time"

	cool "github.com/coolrts/cool"
)

// TestWithDeadlineShedsOnBothBackends spawns half the tasks with an
// already-expired deadline on each backend, with no option armed: the
// expired half must shed (counted as deadline misses and not as run
// tasks, scope still released, traced as sheds) and the rest run. Both
// backends must count the same TasksRun, DeadlineMisses and Completed.
func TestWithDeadlineShedsOnBothBackends(t *testing.T) {
	const n = 40
	want := map[string]int64{
		"TasksRun":       n + 1, // the fresh half plus main
		"DeadlineMisses": n,
		"Completed":      2*n + 1,
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			rt, err := cool.NewRuntime(cool.Config{Processors: 2, Backend: be.b, TraceCapacity: 1 << 12})
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
			total := rt.Report().Total
			got := map[string]int64{
				"TasksRun":       total.TasksRun,
				"DeadlineMisses": total.DeadlineMisses,
				"Completed":      rt.CounterSnapshot().Completed,
			}
			for name, w := range want {
				if got[name] != w {
					t.Errorf("%s = %d, want %d", name, got[name], w)
				}
			}
			kinds := map[string]int{}
			for _, ev := range rt.TraceEvents() {
				if ev.Task == "late" {
					kinds[ev.Kind]++
				}
			}
			if kinds["shed"] != n || kinds["run"] != 0 || kinds["done"] != 0 {
				t.Errorf("expired tasks traced %v, want %d sheds and no run or done", kinds, n)
			}
		})
	}
}
