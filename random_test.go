package cool_test

import (
	"errors"
	"math/rand"
	goruntime "runtime"
	"testing"
	"testing/quick"
	"time"

	cool "github.com/coolrts/cool"
)

// randomProgram builds a randomized but deterministic task tree mixing
// every affinity kind, nested waitfors, monitors and memory traffic, and
// returns a digest of the run (elapsed cycles and counters). It is the
// repository's randomized integration test: any scheduling or
// synchronization bug tends to surface as a deadlock, a panic, a lost
// task, or non-determinism.
func randomProgram(t *testing.T, seed int64, procs int) (int64, cool.Counters) {
	return randomProgramFaulted(t, seed, procs, nil)
}

// randomProgramFaulted is randomProgram under an optional fault plan: the
// same task tree must still complete every task exactly once while
// processors slow down, stall, or die underneath it.
func randomProgramFaulted(t *testing.T, seed int64, procs int, plan *cool.FaultPlan) (int64, cool.Counters) {
	t.Helper()
	rt, err := cool.NewRuntime(cool.Config{Processors: procs, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	objs := make([]*cool.F64, 8)
	for i := range objs {
		objs[i] = rt.NewF64Pages(512, rng.Intn(procs))
	}
	mons := []*cool.Monitor{rt.NewMonitor(objs[0].Base), rt.NewMonitor(objs[1].Base)}

	var spawned int64
	var body func(c *cool.Ctx, depth int)
	body = func(c *cool.Ctx, depth int) {
		o := objs[rng.Intn(len(objs))]
		for i := 0; i < o.Len(); i += 64 {
			if rng.Intn(2) == 0 {
				c.ReadF64Range(o, i, i+64)
			} else {
				c.WriteF64Range(o, i, i+64)
			}
		}
		c.Compute(int64(rng.Intn(2000)))
		if depth >= 3 {
			return
		}
		kids := rng.Intn(4)
		spawnKids := func() {
			for k := 0; k < kids; k++ {
				var opts []cool.SpawnOpt
				target := objs[rng.Intn(len(objs))]
				d := depth + 1
				switch rng.Intn(6) {
				case 0:
					opts = append(opts, cool.OnObject(target.Base))
				case 1:
					opts = append(opts, cool.TaskAffinity(target.Base))
				case 2:
					opts = append(opts, cool.ObjectAffinity(target.Base))
				case 3:
					opts = append(opts, cool.OnProcessor(rng.Intn(2*procs)))
				case 4:
					// Mutex tasks are leaves: a task that holds a
					// monitor while waiting (even transitively) for
					// another task needing the same monitor deadlocks —
					// a program error in COOL as well.
					opts = append(opts, cool.WithMutex(mons[rng.Intn(len(mons))]))
					d = 3
				case 5:
					// no hints
				}
				spawned++
				c.Spawn("rnd", func(cc *cool.Ctx) { body(cc, d) }, opts...)
			}
		}
		if rng.Intn(2) == 0 {
			c.WaitFor(spawnKids)
		} else {
			spawnKids()
		}
	}

	err = rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for i := 0; i < 6; i++ {
				spawned++
				ctx.Spawn("root", func(c *cool.Ctx) { body(c, 0) })
			}
		})
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	rep := rt.Report()
	if rep.Total.TasksRun != spawned+1 { // +1 for main
		t.Fatalf("seed %d: ran %d tasks, spawned %d", seed, rep.Total.TasksRun, spawned)
	}
	return rt.ElapsedCycles(), rep.Total
}

func TestRandomProgramsComplete(t *testing.T) {
	f := func(seedRaw uint16, procsRaw uint8) bool {
		seed := int64(seedRaw) + 1
		procs := 1 + int(procsRaw)%16
		randomProgram(t, seed, procs)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomProgramsDeterministic(t *testing.T) {
	for _, seed := range []int64{3, 17, 99} {
		c1, t1 := randomProgram(t, seed, 8)
		c2, t2 := randomProgram(t, seed, 8)
		if c1 != c2 || t1 != t2 {
			t.Fatalf("seed %d: non-deterministic (%d vs %d cycles)", seed, c1, c2)
		}
	}
}

// clustersFor mirrors the DASH default of four processors per cluster.
func clustersFor(procs int) int { return (procs + 3) / 4 }

// TestRandomProgramsSurviveRandomFaults throws randomized fault plans
// (slowdowns, stalls, memory degradation, and up to procs-1 permanent
// failures) at the randomized task tree: every seed must still complete
// all tasks, and each seed must replay identically.
func TestRandomProgramsSurviveRandomFaults(t *testing.T) {
	f := func(seedRaw uint16, procsRaw uint8) bool {
		seed := int64(seedRaw) + 1
		procs := 2 + int(procsRaw)%15
		plan := cool.RandomFaultPlan(seed, procs, clustersFor(procs), 5)
		c1, t1 := randomProgramFaulted(t, seed, procs, plan)
		if t.Failed() {
			return false
		}
		c2, t2 := randomProgramFaulted(t, seed, procs, plan)
		if c1 != c2 || t1 != t2 {
			t.Errorf("seed %d procs %d: faulted run non-deterministic (%d vs %d cycles)", seed, procs, c1, c2)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomInjectedPanicsAreDeterministic plants a panic into a random
// root task, the nth spawn's body: the run must fail with a typed
// *cool.TaskPanicError that strikes the same processor at the same
// simulated cycle every time.
func TestRandomInjectedPanicsAreDeterministic(t *testing.T) {
	for _, seed := range []int64{5, 21} {
		cfg := cool.Config{Processors: 8}
		for _, nth := range []int{0, 3, 5} {
			a, b := runPanicking(t, cfg, "root", 6, nth), runPanicking(t, cfg, "root", 6, nth)
			if a.Task != "root" || a.Value != plantedPanic {
				t.Fatalf("panic error = %+v, want the planted panic in root", a)
			}
			if a.Proc != b.Proc || a.Time != b.Time {
				t.Fatalf("seed %d nth %d: panic not deterministic (P%d@%d vs P%d@%d)",
					seed, nth, a.Proc, a.Time, b.Proc, b.Time)
			}
		}
	}
}

// TestNoGoroutineLeakUnderFaults mirrors the engine leak tests at the
// public layer: repeated faulted runs — including ones ending in a task
// panic, which kills redistributed and parked coroutines — must not
// accumulate goroutines.
func TestNoGoroutineLeakUnderFaults(t *testing.T) {
	baseline := goruntime.NumGoroutine()
	for i := 0; i < 30; i++ {
		seed := int64(i + 1)
		plan := cool.RandomFaultPlan(seed, 8, clustersFor(8), 4)
		panicAt := -1
		if i%2 == 1 {
			panicAt = i % 5
		}
		rt, err := cool.NewRuntime(cool.Config{Processors: 8, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		runRandomTree(t, rt, seed, panicAt)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if goruntime.NumGoroutine() <= baseline+5 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d", baseline, goruntime.NumGoroutine())
}

// runRandomTree runs a small spawn tree. The spawns are numbered in
// the spawning code, in the simulator's deterministic spawn order, and
// the body of spawn panicAt (-1 for none) panics at its top; the
// *TaskPanicError it raises is the only acceptable failure.
func runRandomTree(t *testing.T, rt *cool.Runtime, seed int64, panicAt int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	spawned := 0
	spawn := func(ctx *cool.Ctx, body func(*cool.Ctx)) {
		k := spawned
		spawned++
		ctx.Spawn("rnd", func(c *cool.Ctx) {
			if k == panicAt {
				panic(plantedPanic)
			}
			body(c)
		})
	}
	err := rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for i := 0; i < 8; i++ {
				n := int64(rng.Intn(3000))
				spawn(ctx, func(c *cool.Ctx) {
					c.Compute(500 + n)
					if n%3 == 0 {
						c.WaitFor(func() {
							spawn(c, func(cc *cool.Ctx) { cc.Compute(n) })
						})
					}
				})
			}
		})
	})
	if err != nil {
		var pe *cool.TaskPanicError
		if !errors.As(err, &pe) || pe.Value != plantedPanic {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
