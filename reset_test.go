package cool_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
)

// sumJob spawns one task per chunk summing a freshly allocated array,
// and returns the expected and computed sums — a minimal but real
// workload for reuse tests (it allocates, so it exercises the arena
// rewind, and it spawns with object affinity, so it exercises the set
// table and placement).
func sumJob(t *testing.T, rt *cool.Runtime, chunks int) {
	t.Helper()
	const per = 512
	data := rt.NewF64(chunks*per, 0)
	for i := range data.Data {
		data.Data[i] = float64(i % 7)
	}
	var want, got float64
	for _, v := range data.Data {
		want += v
	}
	var total atomic.Int64
	err := rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			ctx.SpawnN("sum", chunks, func(c *cool.Ctx, i int) {
				var s float64
				for j := i * per; j < (i+1)*per; j++ {
					s += c.ReadF64(data, j)
				}
				total.Add(int64(s))
			}, func(i int) []cool.SpawnOpt {
				return []cool.SpawnOpt{cool.ObjectAffinity(data.Base + int64(i*per*8))}
			})
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got = float64(total.Load())
	if got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

// TestResetNativeWarmReuse runs the same job repeatedly on one warm
// native runtime, asserting each run completes correctly and reports
// only its own work.
func TestResetNativeWarmReuse(t *testing.T) {
	rt, err := cool.NewRuntime(cool.Config{Processors: 4, Backend: cool.BackendNative})
	if err != nil {
		t.Fatal(err)
	}
	for job := 0; job < 5; job++ {
		if job > 0 {
			if err := rt.Reset(); err != nil {
				t.Fatalf("Reset before job %d: %v", job, err)
			}
		}
		sumJob(t, rt, 16)
		rep := rt.Report()
		// 16 spawned tasks + main, regardless of how many jobs ran before.
		if rep.Total.TasksRun != 17 {
			t.Fatalf("job %d: TasksRun = %d, want 17 (counters bled across Reset?)", job, rep.Total.TasksRun)
		}
		if rep.SetSplits != 0 {
			t.Fatalf("job %d: SetSplits = %d", job, rep.SetSplits)
		}
	}
}

// TestResetSimDeterministicReuse asserts a warm simulated runtime
// reproduces a cold run bit-for-bit: same task count, same cycle count.
func TestResetSimDeterministicReuse(t *testing.T) {
	rt, err := cool.NewRuntime(cool.Config{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	sumJob(t, rt, 16)
	coldCycles := rt.ElapsedCycles()
	coldTasks := rt.Report().Total.TasksRun
	if err := rt.Reset(); err != nil {
		t.Fatal(err)
	}
	sumJob(t, rt, 16)
	if rt.ElapsedCycles() != coldCycles {
		t.Fatalf("warm run took %d cycles, cold took %d — reuse changed simulated behaviour", rt.ElapsedCycles(), coldCycles)
	}
	if rt.Report().Total.TasksRun != coldTasks {
		t.Fatalf("warm TasksRun = %d, cold %d", rt.Report().Total.TasksRun, coldTasks)
	}
}

// TestResetSimRecycledRecordsCarryNothing runs a job whose tasks leave
// every kind of per-task state in their pooled records — a monitor, a
// prefetch list, a SpawnN body and index — then, after
// Reset, a plain job that takes those records back. The plain job's
// Report must equal the same job's on a fresh runtime.
func TestResetSimRecycledRecordsCarryNothing(t *testing.T) {
	const cfgProcs = 4
	jobA := func(rt *cool.Runtime) error {
		objs := make([]cool.Obj, 4)
		for i := range objs {
			objs[i] = rt.NewObj(256, i)
		}
		mon := rt.NewMonitor(objs[0].Base)
		return rt.Run(func(ctx *cool.Ctx) {
			ctx.WaitFor(func() {
				for i := range 8 {
					ctx.Spawn("locked", func(c *cool.Ctx) { c.Compute(100) }, cool.WithMutex(mon))
					ctx.Spawn("two", func(c *cool.Ctx) { c.Compute(10) },
						cool.ObjectAffinitySized(objs[i%4].Base, 256),
						cool.ObjectAffinitySized(objs[(i+1)%4].Base, 128))
				}
				ctx.SpawnN("member", 8, func(c *cool.Ctx, i int) { c.Compute(int64(10 * i)) }, nil)
			})
		})
	}
	jobB := func(rt *cool.Runtime) cool.Report {
		t.Helper()
		data := rt.NewF64(64*64, 0)
		err := rt.Run(func(ctx *cool.Ctx) {
			ctx.WaitFor(func() {
				for i := range 64 {
					ctx.Spawn("plain", func(c *cool.Ctx) {
						for j := i * 64; j < (i+1)*64; j++ {
							_ = c.ReadF64(data, j)
						}
					})
				}
			})
		})
		if err != nil {
			t.Fatalf("job B: %v", err)
		}
		return rt.Report()
	}

	fresh, err := cool.NewRuntime(cool.Config{Processors: cfgProcs})
	if err != nil {
		t.Fatal(err)
	}
	want := jobB(fresh)

	rt, err := cool.NewRuntime(cool.Config{Processors: cfgProcs})
	if err != nil {
		t.Fatal(err)
	}
	if err := jobA(rt); err != nil {
		t.Fatalf("job A: %v", err)
	}
	if a := rt.Report().Total; a.Prefetches == 0 {
		t.Fatal("job A issued no prefetches")
	}
	if err := rt.Reset(); err != nil {
		t.Fatal(err)
	}
	got := jobB(rt)
	if got.Cycles != want.Cycles {
		t.Errorf("job B after Reset took %d cycles, on a fresh runtime %d", got.Cycles, want.Cycles)
	}
	if got.Total != want.Total {
		t.Errorf("job B after Reset counted\n%+v\non a fresh runtime\n%+v", got.Total, want.Total)
	}
}

// TestResetRewindsArena asserts the address space rewinds: the first
// allocation after Reset reuses the first allocation's address, on both
// backends.
func TestResetRewindsArena(t *testing.T) {
	for _, backend := range []cool.Backend{cool.BackendSim, cool.BackendNative} {
		rt, err := cool.NewRuntime(cool.Config{Processors: 2, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		a := rt.NewF64(128, 0)
		if err := rt.Run(func(ctx *cool.Ctx) {}); err != nil {
			t.Fatal(err)
		}
		if err := rt.Reset(); err != nil {
			t.Fatal(err)
		}
		b := rt.NewF64(128, 0)
		if a.Base != b.Base {
			t.Fatalf("%v: post-Reset allocation at %#x, want rewound %#x", backend, b.Base, a.Base)
		}
		if err := rt.Run(func(ctx *cool.Ctx) {}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResetCounterFidelity runs a 32-task job, then a smaller one on the
// same warm native runtime: the second job's report, total and every
// worker's row alike, counts only its own tasks and spawns. This is the
// report-fidelity contract runtime reuse must keep: a job's report never
// bleeds a predecessor's counters.
func TestResetCounterFidelity(t *testing.T) {
	rt, err := cool.NewRuntime(cool.Config{Processors: 2, Backend: cool.BackendNative})
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	err = rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for i := 0; i < 32; i++ {
				ctx.Spawn("first", func(c *cool.Ctx) { ran.Add(1) })
			}
		})
	})
	if err != nil {
		t.Fatalf("first job: %v", err)
	}
	if first := rt.Report().Total; ran.Load() != 32 || first.TasksRun != 33 {
		t.Fatalf("first job: %d bodies ran, TasksRun = %d; want 32, 33", ran.Load(), first.TasksRun)
	}

	if err := rt.Reset(); err != nil {
		t.Fatal(err)
	}
	sumJob(t, rt, 8)
	second := rt.Report()
	var per cool.Counters
	for _, row := range second.Per {
		per.Add(row)
	}
	for _, c := range []struct {
		name     string
		got, row int64
		want     int64
	}{
		{"TasksRun", second.Total.TasksRun, per.TasksRun, 9}, // 8 chunks + main
		{"Spawns", second.Total.Spawns, per.Spawns, 8},
	} {
		if c.got != c.want || c.row != c.want {
			t.Errorf("second job %s = %d, summed over workers %d; want %d", c.name, c.got, c.row, c.want)
		}
	}
}

// TestResetRefusedAfterFailedNativeRun asserts a native runtime that
// stopped on an error refuses warm reuse (the pool must rebuild it).
func TestResetRefusedAfterFailedNativeRun(t *testing.T) {
	rt, err := cool.NewRuntime(cool.Config{Processors: 2, Backend: cool.BackendNative})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(func(ctx *cool.Ctx) { panic("boom") }); err == nil {
		t.Fatal("panicking run reported success")
	}
	if err := rt.Reset(); err == nil {
		t.Fatal("Reset accepted a runtime whose run failed")
	}
}

// TestDeadlineStopRefusesResetAndRebuildRuns stops a native run at its
// deadline with a task blocked on a condition that is never signalled:
// Run returns *DeadlineExceededError, Reset refuses the runtime, and a
// runtime rebuilt from the same Config runs the same job cleanly once
// nothing holds the task back.
func TestDeadlineStopRefusesResetAndRebuildRuns(t *testing.T) {
	cfg := cool.Config{Processors: 2, Backend: cool.BackendNative, Deadline: 2_000_000}
	var hold atomic.Bool
	var ran atomic.Int64
	job := func(ctx *cool.Ctx) {
		m, cv := ctx.Runtime().NewMonitor(0), new(cool.Cond)
		ctx.WaitFor(func() {
			for i := 0; i < 8; i++ {
				ctx.Spawn("w", func(c *cool.Ctx) {
					if hold.Load() {
						c.Lock(m)
						c.Wait(cv, m) // never signalled
						c.Unlock(m)
					}
					ran.Add(1)
				})
			}
		})
	}
	rt, err := cool.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hold.Store(true)
	var de *cool.DeadlineExceededError
	if err := rt.Run(job); !errors.As(err, &de) {
		t.Fatalf("held run = %v, want *DeadlineExceededError", err)
	}
	if err := rt.Reset(); err == nil {
		t.Fatal("Reset accepted a runtime stopped at its deadline")
	}

	hold.Store(false)
	ran.Store(0)
	rt, err = cool.NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(job); err != nil {
		t.Fatalf("rebuilt runtime: %v", err)
	}
	r := rt.Report()
	if ran.Load() != 8 || r.Total.TasksRun != 9 {
		t.Fatalf("rebuilt run: %d bodies ran, TasksRun = %d; want 8, 9", ran.Load(), r.Total.TasksRun)
	}
	if err := rt.Reset(); err != nil {
		t.Fatalf("Reset after the rebuilt runtime's clean run: %v", err)
	}
}

// warmJob allocates one array of each length of a small mix through
// every array constructor, fills them with non-zero values in a run, and
// returns the handles.
func warmJob(t *testing.T, rt *cool.Runtime) ([]*cool.F64, []*cool.I64) {
	t.Helper()
	fs := []*cool.F64{rt.NewF64(100, 0), rt.NewF64Pages(1024, 1)}
	is := []*cool.I64{rt.NewI64(100, 1), rt.NewI64Pages(1024, 0)}
	err := rt.Run(func(ctx *cool.Ctx) {
		fs = append(fs, ctx.NewF64(300))
		is = append(is, ctx.NewI64(300))
		for _, f := range fs {
			for i := range f.Data {
				if f.Data[i] != 0 {
					t.Errorf("a new F64 of %d elements reads %v at %d", f.Len(), f.Data[i], i)
					return
				}
				f.Data[i] = float64(i + 1)
			}
		}
		for _, a := range is {
			for i := range a.Data {
				if a.Data[i] != 0 {
					t.Errorf("a new I64 of %d elements reads %d at %d", a.Len(), a.Data[i], i)
					return
				}
				a.Data[i] = int64(i + 1)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs, is
}

// sharedArrays counts the arrays of a second job that use the backing
// storage, or the handle, of an array of the first.
func sharedArrays(fs1, fs2 []*cool.F64, is1, is2 []*cool.I64) int {
	shared := 0
	for i := range fs1 {
		if fs1[i] == fs2[i] || &fs1[i].Data[0] == &fs2[i].Data[0] {
			shared++
		}
	}
	for i := range is1 {
		if is1[i] == is2[i] || &is1[i].Data[0] == &is2[i].Data[0] {
			shared++
		}
	}
	return shared
}

// TestResetReusesArraysCleared: after Reset, a job's allocations get the
// previous job's arrays of the same lengths back, cleared, on both
// backends. warmJob checks that every array reads zero.
func TestResetReusesArraysCleared(t *testing.T) {
	for _, backend := range []cool.Backend{cool.BackendSim, cool.BackendNative} {
		rt, err := cool.NewRuntime(cool.Config{Processors: 2, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		fs1, is1 := warmJob(t, rt)
		if err := rt.Reset(); err != nil {
			t.Fatal(err)
		}
		fs2, is2 := warmJob(t, rt)
		if n := sharedArrays(fs1, fs2, is1, is2); n != len(fs1)+len(is1) {
			t.Errorf("%v: %d of %d arrays were reused after Reset", backend, n, len(fs1)+len(is1))
		}
	}
}

// TestResetReusesMonitors: after Reset, a job's NewMonitor calls get the
// previous job's monitors back, re-armed at their new addresses and
// free, on both backends; each job's mutex tasks serialize on them.
func TestResetReusesMonitors(t *testing.T) {
	for _, backend := range []cool.Backend{cool.BackendSim, cool.BackendNative} {
		rt, err := cool.NewRuntime(cool.Config{Processors: 2, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		job := func() []*cool.Monitor {
			mons := []*cool.Monitor{rt.NewMonitor(0), rt.NewMonitor(64)}
			counts := make([]int, len(mons))
			err := rt.Run(func(ctx *cool.Ctx) {
				mons = append(mons, rt.NewMonitor(128))
				counts = append(counts, 0)
				ctx.WaitFor(func() {
					ctx.SpawnN("locked", 60, func(c *cool.Ctx, i int) {
						m := i % len(mons)
						c.Lock(mons[m])
						counts[m]++
						c.Unlock(mons[m])
					}, nil)
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			for m, n := range counts {
				if n != 20 {
					t.Errorf("%v: monitor %d guarded %d increments, want 20", backend, m, n)
				}
			}
			return mons
		}
		first := job()
		if err := rt.Reset(); err != nil {
			t.Fatal(err)
		}
		second := job()
		reused := 0
		for _, a := range first {
			for _, b := range second {
				if a == b {
					reused++
				}
			}
		}
		if reused != len(first) {
			t.Errorf("%v: %d of %d monitors were reused after Reset", backend, reused, len(first))
		}
	}
}

// TestIdleRuntimeReleasesWarmArrays: the arrays a reset runtime keeps
// are the garbage collector's to take. After Reset and two collections
// with no job in between, the next job's arrays share no storage and no
// handle with the previous job's.
func TestIdleRuntimeReleasesWarmArrays(t *testing.T) {
	for _, backend := range []cool.Backend{cool.BackendSim, cool.BackendNative} {
		rt, err := cool.NewRuntime(cool.Config{Processors: 2, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		fs1, is1 := warmJob(t, rt)
		if err := rt.Reset(); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		fs2, is2 := warmJob(t, rt)
		if n := sharedArrays(fs1, fs2, is1, is2); n != 0 {
			t.Errorf("%v: %d arrays outlived two collections of an idle runtime", backend, n)
		}
	}
}

// TestWarmArraysFromConcurrentTasks: native tasks that allocate at once
// each get an array of their own, reading zero, job after job on one
// reset runtime: the free lists are shared by the workers.
func TestWarmArraysFromConcurrentTasks(t *testing.T) {
	rt, err := cool.NewRuntime(cool.Config{Processors: 4, Backend: cool.BackendNative})
	if err != nil {
		t.Fatal(err)
	}
	const tasks = 64
	for job := range 5 {
		if job > 0 {
			if err := rt.Reset(); err != nil {
				t.Fatal(err)
			}
		}
		arrs := make([]*cool.F64, tasks)
		err := rt.Run(func(ctx *cool.Ctx) {
			ctx.WaitFor(func() {
				ctx.SpawnN("alloc", tasks, func(c *cool.Ctx, i int) {
					a := c.NewF64(16 + i%4)
					for j := range a.Data {
						if a.Data[j] != 0 {
							t.Errorf("job %d task %d: a new array reads %v", job, i, a.Data[j])
						}
						a.Data[j] = float64(i)
					}
					arrs[i] = a
				}, nil)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range arrs {
			for _, v := range a.Data {
				if v != float64(i) {
					t.Fatalf("job %d: task %d's array holds %v: two tasks were given one array", job, i, v)
				}
			}
		}
	}
}

// TestWarmJobAllocBytes guards the warm job path end to end: on a warm
// native P=2 runtime, each of the three jobs after the first allocates
// at most 16 KB, and an app's large jobs at most 8 KB more than its
// small ones. The arrays and monitors are the runtime's warm state, the
// task records its freelists, the host scratch and task bodies the
// app's stash and the inputs its memo, so what is left does not grow
// with the job. Every app runs at every catalog size; pancho runs twice,
// once as on a residency hit, with its analyze phase kept, and once
// without, analyzing inline into a Prep the job before it handed back.
// ocean, whose grid operations make nothing per operation, is held to
// 2 KB.
func TestWarmJobAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const ceiling, growth = 16 << 10, 8 << 10
	tight := map[string]uint64{"ocean": 2 << 10}
	for _, app := range apps.CatalogNames() {
		limit := uint64(ceiling)
		if b, ok := tight[app]; ok {
			limit = b
		}
		kept := []bool{false}
		if apps.CatalogHasPrepare(app) {
			kept = append(kept, true)
		}
		for _, resident := range kept {
			worst := map[string]uint64{}
			for _, size := range []string{"small", "medium", "large"} {
				name := app + "/" + size
				var prep any
				if resident {
					var err error
					if prep, err = apps.PrepareCatalog(app, size); err != nil {
						t.Fatal(err)
					}
					name += "/resident"
				}
				rt, err := cool.NewRuntime(cool.Config{Processors: 2, Backend: cool.BackendNative})
				if err != nil {
					t.Fatal(err)
				}
				jobs := warmJobBytes(t, rt, limit, func() (apps.Result, error) {
					return apps.RunCatalogPrepared(rt, app, size, prep)
				})
				t.Logf("%s: first job %d bytes, later jobs %v", name, jobs[0], jobs[1:])
				for i, b := range jobs[1:] {
					if b > limit {
						t.Errorf("%s: warm job %d allocated %d bytes in %d tries, more than %d each time", name, i+2, b, allocTries, limit)
					}
					worst[size] = max(worst[size], b)
				}
			}
			if worst["large"] > worst["small"]+growth {
				t.Errorf("%s (resident %v): a warm large job allocated %d bytes, more than %d over a small one's %d", app, resident, worst["large"], growth, worst["small"])
			}
		}
	}
}

// checkWarmJobs runs job four times on a warm native runtime of procs
// processors and fails if any job after the first allocates more than
// ceiling bytes.
func checkWarmJobs(t *testing.T, name string, procs int, ceiling uint64, job func(*cool.Runtime) (apps.Result, error)) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	rt, err := cool.NewRuntime(cool.Config{Processors: procs, Backend: cool.BackendNative})
	if err != nil {
		t.Fatal(err)
	}
	jobs := warmJobBytes(t, rt, ceiling, func() (apps.Result, error) { return job(rt) })
	t.Logf("%s P=%d: first job %d bytes, later jobs %v", name, procs, jobs[0], jobs[1:])
	for i, b := range jobs[1:] {
		if b > ceiling {
			t.Errorf("%s P=%d: warm job %d allocated %d bytes in %d tries, more than %d each time", name, procs, i+2, b, allocTries, ceiling)
		}
	}
}

// TestWarmPreparedJobAllocBytes guards a resident pancho small job, the
// serving layer's fast path, on a single processor: with the Prep kept,
// every job after the first allocates at most 64 KB. The check reads
// the panels in place against a reference built once per grid, so
// neither the reference nor a copy of the factor is paid per job.
func TestWarmPreparedJobAllocBytes(t *testing.T) {
	prep, err := apps.PrepareCatalog("pancho", "small")
	if err != nil {
		t.Fatal(err)
	}
	checkWarmJobs(t, "pancho/small/resident", 1, 64<<10, func(rt *cool.Runtime) (apps.Result, error) {
		return apps.RunCatalogPrepared(rt, "pancho", "small", prep)
	})
}

// TestWarmBarneshutJobAllocBytes guards a keyless barneshut small job on
// a single processor: every job after the first allocates at most
// 128 KB. The bodies and tree records are warm arrays, and the host
// octree and the force walk's threaded array come from the app's stash.
func TestWarmBarneshutJobAllocBytes(t *testing.T) {
	checkWarmJobs(t, "barneshut/small", 1, 128<<10, func(rt *cool.Runtime) (apps.Result, error) {
		return apps.RunCatalogOn(rt, "barneshut", "small")
	})
}

// TestWarmLocusrouteJobAllocBytes guards a keyless locusroute job on
// two processors: every job after the first allocates at most 64 KB at
// small and at large. The CostArray is a warm array and Finish checks
// it in place, so no 512 KiB grid is paid per job.
func TestWarmLocusrouteJobAllocBytes(t *testing.T) {
	for _, size := range []string{"small", "large"} {
		checkWarmJobs(t, "locusroute/"+size, 2, 64<<10, func(rt *cool.Runtime) (apps.Result, error) {
			return apps.RunCatalogOn(rt, "locusroute", size)
		})
	}
}

// registryRun returns a func that runs app's catalog preset through
// the registry under cfg.
func registryRun(t *testing.T, app, size string, cfg cool.Config) func() {
	t.Helper()
	e, _ := apps.CatalogLookup(app)
	a, _ := apps.Lookup(e.App)
	n, err := apps.CatalogSize(app, size)
	if err != nil {
		t.Fatal(err)
	}
	return func() {
		if _, err := a.RunCfg(cfg, e.Variant, n); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWarmSimJobAllocBytes guards the warm simulated machine: every
// registry run of an ocean medium job at P=32 after the first takes the
// first run's runtime back through Reset instead of building a machine,
// so it allocates at most 64 KB (measured: 24 KB on linux/amd64, Go
// 1.24; the margin is 40 KB). A P=32 machine's cache ways alone are
// 1.3 MB.
func TestWarmSimJobAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const ceiling = 64 << 10
	run := registryRun(t, "ocean", "medium", cool.Config{Processors: 32})
	first := allocBytes(math.MaxUint64, nil, run)
	for r := 2; r <= 4; r++ {
		got := allocBytes(ceiling, nil, run)
		t.Logf("ocean/medium P=32: first run %d bytes, run %d %d", first, r, got)
		if got > ceiling {
			t.Errorf("ocean/medium P=32: registry run %d allocated %d bytes in %d tries, more than %d each time", r, got, allocTries, ceiling)
		}
	}
}

// TestRegistryIdleRuntimesOutliveCollections: the registry's idle
// runtimes are kept through garbage collections and bounded by count.
// After two collections the next run with an equal Config resets the
// previous run's runtime and allocates at most 64 KB (its arrays, which
// the collections took, included); once 17 distinct Configs have run,
// the first one's runtime has been dropped and its next run builds one.
func TestRegistryIdleRuntimesOutliveCollections(t *testing.T) {
	var rt *cool.Runtime
	restore := cool.CaptureRuntime(func(r *cool.Runtime) { rt = r })
	defer restore()
	// Deadlines no run reaches and no other test uses, so no idle
	// runtime of theirs matches.
	cfg := func(i int) cool.Config { return cool.Config{Processors: 2, Deadline: 1<<50 + int64(i)} }

	run := registryRun(t, "gauss", "small", cfg(0))
	run()
	first := rt
	// Every try runs after two collections.
	got := allocBytes(64<<10, func() { runtime.GC(); runtime.GC() }, run)
	if rt != first {
		t.Fatal("the run after two collections built a new runtime")
	}
	t.Logf("gauss/small P=2 after two collections: %d bytes", got)
	if !raceEnabled && got > 64<<10 {
		t.Errorf("gauss/small P=2 after two collections allocated %d bytes in %d tries, more than 64 KB each time", got, allocTries)
	}

	for i := 1; i <= 16; i++ {
		registryRun(t, "gauss", "small", cfg(i))()
	}
	run()
	if rt == first {
		t.Error("the first Config's runtime outlived 16 newer idle runtimes")
	}
}

// BenchmarkSimRuntime is what a registry run pays for its simulated
// machine at P=8 and P=32: new builds one with NewRuntime, reset re-arms
// with Reset one that has run an ocean medium job (so its directory has
// pages to clear), as the registry does before every run after the
// first with an equal Config.
func BenchmarkSimRuntime(b *testing.B) {
	for _, procs := range []int{8, 32} {
		cfg := cool.Config{Processors: procs}
		b.Run(fmt.Sprintf("new/P=%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cool.NewRuntime(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("reset/P=%d", procs), func(b *testing.B) {
			rt, err := cool.NewRuntime(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := apps.RunCatalogOn(rt, "ocean", "medium"); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := rt.Reset(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// warmJobBytes runs job four times on rt, with a Reset after each, and
// returns the bytes each run and its Reset allocated: the first run
// measured once, each later one by allocBytes against ceiling.
func warmJobBytes(t *testing.T, rt *cool.Runtime, ceiling uint64, job func() (apps.Result, error)) []uint64 {
	t.Helper()
	run := func() {
		if _, err := job(); err != nil {
			t.Fatal(err)
		}
		if err := rt.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	bytes := []uint64{allocBytes(math.MaxUint64, nil, run)}
	for len(bytes) < 4 {
		bytes = append(bytes, allocBytes(ceiling, nil, run))
	}
	return bytes
}

// allocTries bounds the tries of one allocation guard's window. The
// guards read the process-wide runtime.MemStats.TotalAlloc, so an
// allocation outside the measured code can land in the window (a
// Prepare that made nothing once read 5 248 B, most likely from a
// collection starting its mark workers). A window over its ceiling is
// measured again, and a guard fails only if every try is over; pancho's
// TestPrepareRecycledAllocBytes keeps the same rule.
const allocTries = 3

// allocBytes returns the bytes one call of run allocates, measuring
// again while a try reads more than ceiling, up to allocTries times, so
// the result is over ceiling only if every try was. prepare, when not
// nil, runs before each try, outside the window.
func allocBytes(ceiling uint64, prepare, run func()) uint64 {
	var b uint64
	for try := 0; try < allocTries; try++ {
		if prepare != nil {
			prepare()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		run()
		runtime.ReadMemStats(&m1)
		if b = m1.TotalAlloc - m0.TotalAlloc; b <= ceiling {
			break
		}
	}
	return b
}
