package cool_test

import (
	"sync/atomic"
	"testing"

	cool "github.com/coolrts/cool"
)

// spawnNArms lists the two scheduler arms SpawnN must behave identically
// on: the simulator (where SpawnN is by construction the plain spawn
// loop) and the native backend (one batch publish onto the deque).
var spawnNArms = []struct {
	name string
	b    cool.Backend
}{
	{"sim", cool.BackendSim},
	{"native-deque", cool.BackendNative},
}

// TestSpawnNRunsEveryIndex asserts the batched spawn contract on every
// arm: each index in [0, n) executes exactly once, nested WaitFor
// scoping holds (children finish before the waitfor returns), and a
// zero or negative n spawns nothing.
func TestSpawnNRunsEveryIndex(t *testing.T) {
	for _, arm := range spawnNArms {
		arm := arm
		t.Run(arm.name, func(t *testing.T) {
			rt, err := cool.NewRuntime(cool.Config{
				Processors: 4,
				Backend:    arm.b,
			})
			if err != nil {
				t.Fatal(err)
			}
			const n = 500
			var ran [n]int32
			var nested atomic.Int64
			err = rt.Run(func(ctx *cool.Ctx) {
				ctx.WaitFor(func() {
					ctx.SpawnN("leaf", n, func(c *cool.Ctx, i int) {
						atomic.AddInt32(&ran[i], 1)
						if i%50 == 0 {
							// A batch member spawning its own nested batch
							// exercises SpawnN from a non-root context.
							c.WaitFor(func() {
								c.SpawnN("nested", 3, func(_ *cool.Ctx, _ int) {
									nested.Add(1)
								}, nil)
							})
						}
					}, nil)
					ctx.SpawnN("none", 0, func(*cool.Ctx, int) {
						t.Error("SpawnN(0) spawned a task")
					}, nil)
				})
				for i := range ran {
					if atomic.LoadInt32(&ran[i]) != 1 {
						t.Errorf("index %d ran %d times before WaitFor returned", i, ran[i])
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := nested.Load(); got != 3*(n/50) {
				t.Fatalf("nested tasks ran %d times, want %d", got, 3*(n/50))
			}
			r := rt.Report()
			if want := int64(n + 3*(n/50)); r.Total.Spawns != want {
				t.Errorf("Spawns = %d, want %d", r.Total.Spawns, want)
			}
			// SpawnBatches is a native-only counter: one per SpawnN burst
			// there, zero on the simulator.
			batches := r.Total.SpawnBatches
			if arm.b == cool.BackendNative {
				if batches == 0 {
					t.Error("native arm recorded no SpawnBatches")
				}
			} else if batches != 0 {
				t.Errorf("%s arm recorded %d SpawnBatches, want 0", arm.name, batches)
			}
		})
	}
}

// TestSpawnNOptionsApplied asserts the per-index options callback is
// honored: processor affinity pins every batch member to its requested
// processor (stealing disabled so placement is observable), on both
// arms.
func TestSpawnNOptionsApplied(t *testing.T) {
	const procs = 4
	for _, arm := range spawnNArms {
		arm := arm
		t.Run(arm.name, func(t *testing.T) {
			rt, err := cool.NewRuntime(cool.Config{
				Processors: procs,
				Backend:    arm.b,
				Sched:      cool.SchedPolicy{NoStealing: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			const n = 64
			var ranOn [n]int32
			err = rt.Run(func(ctx *cool.Ctx) {
				ctx.WaitFor(func() {
					ctx.SpawnN("pin", n, func(c *cool.Ctx, i int) {
						atomic.StoreInt32(&ranOn[i], int32(c.ProcID()))
					}, func(i int) []cool.SpawnOpt {
						return []cool.SpawnOpt{cool.OnProcessor(i % procs)}
					})
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range ranOn {
				if got, want := int(ranOn[i]), i%procs; got != want {
					t.Errorf("index %d ran on processor %d, want %d", i, got, want)
				}
			}
		})
	}
}

// TestSpawnNTaskAffinitySets asserts batch members carrying task
// affinity land in sets without ever splitting one, and that the run's
// figures agree across both arms where they are defined to agree
// (task counts; the sim arm is the reference semantics).
func TestSpawnNTaskAffinitySets(t *testing.T) {
	for _, arm := range spawnNArms {
		arm := arm
		t.Run(arm.name, func(t *testing.T) {
			rt, err := cool.NewRuntime(cool.Config{
				Processors: 4,
				Backend:    arm.b,
			})
			if err != nil {
				t.Fatal(err)
			}
			set := rt.NewI64(8, 0)
			const n = 200
			var ran atomic.Int64
			err = rt.Run(func(ctx *cool.Ctx) {
				ctx.WaitFor(func() {
					ctx.SpawnN("member", n, func(*cool.Ctx, int) {
						ran.Add(1)
					}, func(i int) []cool.SpawnOpt {
						return []cool.SpawnOpt{cool.TaskAffinity(set.Addr(i % 8))}
					})
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := ran.Load(); got != n {
				t.Fatalf("ran %d tasks, want %d", got, n)
			}
			r := rt.Report()
			if r.Total.TasksRun != n+1 {
				t.Errorf("TasksRun = %d, want %d", r.Total.TasksRun, n+1)
			}
			if r.SetSplits != 0 {
				t.Errorf("SetSplits = %d, want 0", r.SetSplits)
			}
		})
	}
}
