package cool_test

import (
	"strings"
	"testing"

	cool "github.com/coolrts/cool"
)

// backends lists the execution backends every consistency test runs on.
var backends = []struct {
	name string
	b    cool.Backend
}{
	{"sim", cool.BackendSim},
	{"native", cool.BackendNative},
}

// runWorkload executes a spawn-heavy workload — a mutex-guarded counter
// plus task-affinity sets — and returns the report. It is deliberately
// contended so wake and lock counters have something to count.
func runWorkload(t *testing.T, backend cool.Backend, procs, tasks int) cool.Report {
	t.Helper()
	rt, err := cool.NewRuntime(cool.Config{Processors: procs, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	counter := rt.NewI64(1, 0)
	set := rt.NewI64(8, 0)
	var mu cool.Monitor
	err = rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for i := 0; i < tasks; i++ {
				i := i
				ctx.Spawn("count", func(c *cool.Ctx) {
					c.Lock(&mu)
					c.AddI64(counter, 0, 1)
					c.Unlock(&mu)
				}, cool.TaskAffinity(set.Addr(i%8)))
			}
		})
	})
	if err != nil {
		t.Fatalf("%v backend: %v", backend, err)
	}
	if got := counter.Data[0]; got != int64(tasks) {
		t.Fatalf("%v backend: counter = %d, want %d", backend, got, tasks)
	}
	return rt.Report()
}

// TestReportCountersConsistent asserts the runtime counters that the
// paper's instrumentation relies on are reported with the same meaning
// on both backends: every spawn becomes exactly one executed task, wake
// counters account for the spawns that found the machine (partially)
// idle, and the fault-path counters stay zero on a healthy run.
func TestReportCountersConsistent(t *testing.T) {
	const procs, tasks = 4, 300
	for _, be := range backends {
		be := be
		t.Run(be.name, func(t *testing.T) {
			r := runWorkload(t, be.b, procs, tasks)
			total := r.Total

			// tasks: the spawned workload plus the main task, each run once.
			if total.TasksRun != tasks+1 {
				t.Errorf("TasksRun = %d, want %d", total.TasksRun, tasks+1)
			}
			if total.Spawns != tasks {
				t.Errorf("Spawns = %d, want %d", total.Spawns, tasks)
			}
			// Per-processor rows must sum to the machine total.
			var perSum int64
			for _, p := range r.Per {
				perSum += p.TasksRun
			}
			if perSum != total.TasksRun {
				t.Errorf("sum of per-processor TasksRun = %d, total = %d", perSum, total.TasksRun)
			}

			// Wakes: both kinds must be non-negative and bounded by what
			// could possibly have triggered them — a spawn, a task
			// becoming runnable again (monitor handoff, scope completion)
			// or a contended lock release wakes at most once each.
			if total.TargetedWakes < 0 || total.BroadcastWakes < 0 {
				t.Errorf("negative wake counters: targeted=%d broadcast=%d",
					total.TargetedWakes, total.BroadcastWakes)
			}
			wakeBudget := total.Spawns + total.TasksRun + total.LockBlocks
			if total.TargetedWakes+total.BroadcastWakes > wakeBudget {
				t.Errorf("wakes %d+%d exceed the %d events that can trigger them",
					total.TargetedWakes, total.BroadcastWakes, wakeBudget)
			}

			// Fault machinery must be silent on a healthy, fault-free run.
			if total.FaultEvents != 0 || total.Redistributed != 0 {
				t.Errorf("healthy run reported FaultEvents=%d Redistributed=%d",
					total.FaultEvents, total.Redistributed)
			}

			// Whole-set stealing is the default: sets must never split.
			if r.SetSplits != 0 {
				t.Errorf("SetSplits = %d, want 0", r.SetSplits)
			}
			if r.Processors != procs {
				t.Errorf("Processors = %d, want %d", r.Processors, procs)
			}
		})
	}
}

// TestWakeCountersObserved asserts each backend actually exercises the
// two-level wakeup scheme on a parallel machine: spawning from a running
// task while other processors idle must produce at least one wake. Wakes
// count only actual token deposits, so a native run can legitimately see
// zero when the spawner outraces its siblings' first park — retry a few
// times rather than assert on one race outcome.
func TestWakeCountersObserved(t *testing.T) {
	for _, be := range backends {
		be := be
		t.Run(be.name, func(t *testing.T) {
			for attempt := 0; attempt < 5; attempt++ {
				r := runWorkload(t, be.b, 8, 400)
				if r.Total.TargetedWakes+r.Total.BroadcastWakes > 0 {
					return
				}
			}
			t.Errorf("no wakes recorded across 5 runs of 400 tasks on an 8-processor machine")
		})
	}
}

// TestNoWakesOnLoneProcessor is the counter-inflation regression guard:
// on a single-processor machine the enqueuing worker is by definition
// running, so the parked mask is empty at every wake decision and no
// token is ever deposited. A wake counter that increments on the
// decision rather than the deposit shows up here as hundreds of
// phantom wakes.
func TestNoWakesOnLoneProcessor(t *testing.T) {
	for _, be := range backends {
		be := be
		t.Run(be.name, func(t *testing.T) {
			r := runWorkload(t, be.b, 1, 400)
			if n := r.Total.TargetedWakes + r.Total.BroadcastWakes; n != 0 {
				t.Errorf("lone-processor run recorded %d wakes (targeted=%d broadcast=%d), want 0",
					n, r.Total.TargetedWakes, r.Total.BroadcastWakes)
			}
		})
	}
}

// TestTraceDumpReportsDrops overflows a small trace on both backends:
// the dump must say that events were dropped.
func TestTraceDumpReportsDrops(t *testing.T) {
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			rt, err := cool.NewRuntime(cool.Config{Processors: 2, Backend: be.b, TraceCapacity: 8})
			if err != nil {
				t.Fatal(err)
			}
			err = rt.Run(func(ctx *cool.Ctx) {
				ctx.WaitFor(func() {
					for i := 0; i < 100; i++ {
						ctx.Spawn("w", func(c *cool.Ctx) { c.Compute(10) })
					}
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			if dump := rt.TraceDump(); !strings.Contains(dump, "events dropped") {
				t.Fatalf("dump does not report drops:\n%s", dump)
			}
		})
	}
}
