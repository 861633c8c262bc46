package cool_test

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	cool "github.com/coolrts/cool"
)

// phaseTasks is the task count of one WaitFor phase in the allocation
// guard: below the 256-record freelist cap, so a warm runtime serves
// every record from a freelist.
const phaseTasks = 128

// taskPathEnv is what the phases of one Run share. It is built once per
// Run, so its cost cancels when two phase counts are differenced. That
// includes the option buffer SpawnN's callback refills per member: a
// buffer the callback returns escapes, so one declared per phase would
// be one allocation per phase.
type taskPathEnv struct {
	objs [4]cool.Obj // objs[i] homed at processor i%2
	mon  *cool.Monitor
	opts [2]cool.SpawnOpt
}

var taskPathRan atomic.Int64

func taskPathLeaf(*cool.Ctx)        { taskPathRan.Add(1) }
func taskPathMember(*cool.Ctx, int) { taskPathRan.Add(1) }

var taskPathCases = []struct {
	name  string
	phase func(ctx *cool.Ctx, e *taskPathEnv)
}{
	{"SpawnN/TaskAffinity+ObjectAffinity", func(ctx *cool.Ctx, e *taskPathEnv) {
		ctx.SpawnN("ta+oa", phaseTasks, taskPathMember, func(i int) []cool.SpawnOpt {
			e.opts[0] = cool.TaskAffinity(e.objs[i%4].Base)
			e.opts[1] = cool.ObjectAffinity(e.objs[(i/4)%4].Base)
			return e.opts[:2]
		})
	}},
	{"SpawnN/OnProcessor", func(ctx *cool.Ctx, e *taskPathEnv) {
		ctx.SpawnN("pin", phaseTasks, taskPathMember, func(i int) []cool.SpawnOpt {
			e.opts[0] = cool.OnProcessor(i)
			return e.opts[:1]
		})
	}},
	{"Spawn", func(ctx *cool.Ctx, e *taskPathEnv) {
		for range phaseTasks {
			ctx.Spawn("plain", taskPathLeaf)
		}
	}},
	{"Spawn/OnObject", func(ctx *cool.Ctx, e *taskPathEnv) {
		for i := range phaseTasks {
			ctx.Spawn("simple", taskPathLeaf, cool.OnObject(e.objs[i%4].Base))
		}
	}},
	{"Spawn/WithMutex", func(ctx *cool.Ctx, e *taskPathEnv) {
		for range phaseTasks {
			ctx.Spawn("mutex", taskPathLeaf, cool.WithMutex(e.mon))
		}
	}},
	// Two sized OBJECT operands homed apart: the simulator prefetches the
	// one not chosen for placement, and both backends pick the home.
	{"Spawn/TwoObjectsSized", func(ctx *cool.Ctx, e *taskPathEnv) {
		for i := range phaseTasks {
			ctx.Spawn("two", taskPathLeaf,
				cool.ObjectAffinitySized(e.objs[i%4].Base, 64),
				cool.ObjectAffinitySized(e.objs[(i+1)%4].Base, 32))
		}
	}},
}

// TestNativeTaskPathAllocs guards the allocation-free native task path:
// on a warm two-worker runtime, spawning and running a task allocates
// nothing.
func TestNativeTaskPathAllocs(t *testing.T) { testTaskPathAllocs(t, cool.BackendNative) }

// TestSimTaskPathAllocs guards the allocation-free simulated task path:
// on a warm two-processor runtime, each task's descriptor, engine task,
// Ctx and body ride in one recycled record.
func TestSimTaskPathAllocs(t *testing.T) { testTaskPathAllocs(t, cool.BackendSim) }

// testTaskPathAllocs runs every taskPathCases phase on a P=2 runtime of
// the given backend, with Reset between Runs. Two Runs that differ only
// in their number of WaitFor phases are differenced, which cancels
// everything paid once per Run (on the simulator, Reset rebuilds the
// whole engine stack); what is left is per phase (one WaitFor scope)
// and per task, and must stay at or below 0.02 allocations per task.
func testTaskPathAllocs(t *testing.T, backend cool.Backend) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const lo, hi = 2, 32
	for _, tc := range taskPathCases {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := cool.NewRuntime(cool.Config{Processors: 2, Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			allocs := func(phases int) float64 {
				return testing.AllocsPerRun(5, func() {
					taskPathRan.Store(0)
					if err := rt.Reset(); err != nil {
						t.Fatal(err)
					}
					err := rt.Run(func(ctx *cool.Ctx) {
						e := &taskPathEnv{mon: rt.NewMonitor(0)}
						for i := range e.objs {
							e.objs[i] = rt.NewObj(64, i%2)
						}
						for range phases {
							ctx.WaitFor(func() { tc.phase(ctx, e) })
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					if got, want := taskPathRan.Load(), int64(phases*phaseTasks); got != want {
						t.Fatalf("%d tasks ran, want %d", got, want)
					}
				})
			}
			allocs(hi) // warm the freelists and scratch buffers
			// The freelists keep their records through Reset and garbage
			// collections; the best of three measurements stands all the
			// same, as a margin for a run whose schedule grows them.
			best := math.Inf(1)
			for range 3 {
				perTask := (allocs(hi) - allocs(lo)) / float64((hi-lo)*phaseTasks)
				t.Logf("%.4f allocations per task", perTask)
				best = min(best, perTask)
			}
			if best > 0.02 {
				t.Errorf("%.4f allocations per task, want <= 0.02", best)
			}
		})
	}
}

// TestNativeCtxPerTaskUnderNesting checks that the facade Ctx reused
// from the pooled task record is still one per task. A task whose
// WaitFor makes its own worker run its children inline, three levels
// deep, must afterwards still see its own ProcID and Runtime, must not
// share its *Ctx with any live ancestor, and its later spawns must land
// in the scope it was itself spawned in — the enclosing WaitFor has to
// wait for them. The runs must also have recycled task records, or the
// test proves nothing.
func TestNativeCtxPerTaskUnderNesting(t *testing.T) {
	testCtxPerTaskUnderNesting(t, cool.BackendNative)
}

// TestSimCtxPerTaskUnderNesting runs the same checks on the simulator,
// whose tasks reuse the Ctx in their pooled record. There a WaitFor
// parks its task instead of helping, and the children pinned to the
// parent's processor run there while it waits.
func TestSimCtxPerTaskUnderNesting(t *testing.T) {
	testCtxPerTaskUnderNesting(t, cool.BackendSim)
}

func testCtxPerTaskUnderNesting(t *testing.T, backend cool.Backend) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("P%d", procs), func(t *testing.T) {
			rt, err := cool.NewRuntime(cool.Config{Processors: procs, Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			const fan, depth = 3, 3
			var (
				mu     sync.Mutex
				seen   = map[*cool.Ctx]bool{}
				ran    int
				inline int // tasks run by their parent's worker
				errs   []string
				spin   atomic.Int64
			)
			fail := func(msg string) {
				mu.Lock()
				errs = append(errs, msg)
				mu.Unlock()
			}
			// level runs one task of the tree; late counts the late spawns
			// of its parent's children, which the parent's WaitFor covers.
			var level func(c *cool.Ctx, lvl int, ancestors []*cool.Ctx, parentProc int, late *atomic.Int64)
			level = func(c *cool.Ctx, lvl int, ancestors []*cool.Ctx, parentProc int, late *atomic.Int64) {
				mu.Lock()
				seen[c] = true
				ran++
				if c.ProcID() == parentProc {
					inline++
				}
				mu.Unlock()
				for _, a := range ancestors {
					if a == c {
						fail("a task was handed a live ancestor's *Ctx")
					}
				}
				if lvl == depth {
					return
				}
				proc := c.ProcID()
				chain := append(ancestors[:len(ancestors):len(ancestors)], c)
				var childLate atomic.Int64
				c.WaitFor(func() {
					for range fan {
						// Pinned to the spawner's worker, so the spawner's
						// helping WaitFor runs them inline.
						c.Spawn("child", func(cc *cool.Ctx) {
							level(cc, lvl+1, chain, proc, &childLate)
						}, cool.OnProcessor(proc))
					}
				})
				if c.ProcID() != proc {
					fail("ProcID changed across a helping WaitFor")
				}
				if c.Runtime() != rt {
					fail("Runtime changed across a helping WaitFor")
				}
				if lvl+1 < depth && childLate.Load() != fan {
					fail("WaitFor returned before its children's later spawns ran")
				}
				if late != nil {
					c.Spawn("late", func(*cool.Ctx) {
						for range 1000 {
							spin.Add(1)
						}
						late.Add(1)
					})
				}
			}
			for range 20 {
				if err := rt.Reset(); err != nil {
					t.Fatal(err)
				}
				if err := rt.Run(func(ctx *cool.Ctx) { level(ctx, 0, nil, -1, nil) }); err != nil {
					t.Fatal(err)
				}
			}
			for _, e := range errs {
				t.Error(e)
			}
			if inline == 0 {
				t.Error("no child ran inline on its parent's worker")
			}
			if len(seen) >= ran {
				t.Errorf("%d tasks ran on %d distinct *Ctx: no task record was recycled", ran, len(seen))
			}
		})
	}
}
