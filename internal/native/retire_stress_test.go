package native

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"github.com/coolrts/cool/internal/core"
	"github.com/coolrts/cool/internal/fault"
)

// TestRetireStress is the drain-correctness torture test: 1–3 workers
// retire mid-run (never worker 0 — it carries the root waitfor, where
// Fail events stay deferred) while spawners pump a randomized mix of
// plain, processor-, object-, and task-affinity work. Run under -race
// with -count=3, it hammers the dead-bit/drain protocol against
// concurrent placement and whole-set stealing: a task lost in the
// retirement race shows up as a count mismatch, a split set as
// SetSplits, a residual entry as a non-empty dead queue, and a stale
// stealable hint as a nonzero counter on a drained worker. The
// retirement drain runs through the locked structures and the Chase-Lev
// deque (popBottom).
func TestRetireStress(t *testing.T) {
	t.Run("deque", retireStress)
}

func retireStress(t *testing.T) {
	const procs = 12 // three clusters of four
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		nFails := 1 + rng.Intn(3)
		p := &fault.Plan{}
		victims := map[int]bool{}
		for len(victims) < nFails {
			v := 1 + rng.Intn(procs-1) // never worker 0
			if victims[v] {
				continue
			}
			victims[v] = true
			p.Fail(v, int64(200_000+rng.Intn(1_500_000))) // 0.2–1.7ms in
		}
		rt, mon := testRuntime(t, procs, func(cfg *Config) {
			cfg.Faults = p
		})

		const spawners = 16
		const perSpawner = 100
		affs := make([][]core.Affinity, spawners)
		for i := range affs {
			affs[i] = make([]core.Affinity, perSpawner)
			for j := range affs[i] {
				switch rng.Intn(4) {
				case 0:
					affs[i][j] = core.Affinity{}
				case 1:
					// Hot sets shared across spawners so placements chase
					// homes that retirement keeps moving.
					affs[i][j] = core.Affinity{Kind: core.AffTask, TaskObj: int64(1 + rng.Intn(6)*4096)}
				case 2:
					affs[i][j] = core.Affinity{Kind: core.AffObject, ObjectObj: int64(1 + rng.Intn(32)*4096)}
				case 3:
					affs[i][j] = core.Affinity{Kind: core.AffProcessor, Processor: rng.Intn(procs)}
				}
			}
		}
		var ran [spawners * perSpawner]int32
		err := rt.Run(func(c *Ctx) {
			c.WaitFor(func() {
				for i := 0; i < spawners; i++ {
					i := i
					c.Spawn("spawner", core.Affinity{Kind: core.AffProcessor, Processor: i % procs}, nil, func(c *Ctx) {
						for j, a := range affs[i] {
							k := i*perSpawner + j
							c.Spawn("leaf", a, nil, func(*Ctx) {
								atomic.AddInt32(&ran[k], 1)
								// Keep the run in the milliseconds so the
								// plan's Fail times land mid-flight.
								time.Sleep(10 * time.Microsecond)
							})
						}
					})
				}
			})
		})
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		for v := range victims {
			if !rt.isDead(v) {
				t.Fatalf("seed %d: worker %d never retired (run finished before its Fail time?)", seed, v)
			}
		}
		if got := rt.aliveWorkers(); got != procs-nFails {
			t.Fatalf("seed %d: aliveWorkers = %d, want %d", seed, got, procs-nFails)
		}
		for k, n := range ran {
			if n != 1 {
				t.Fatalf("seed %d: task %d ran %d times, want exactly once", seed, k, n)
			}
		}
		total := mon.Total()
		if want := int64(1 + spawners + spawners*perSpawner); total.TasksRun != want {
			t.Fatalf("seed %d: TasksRun=%d want %d", seed, total.TasksRun, want)
		}
		if rt.SetSplits() != 0 {
			t.Fatalf("seed %d: SetSplits=%d want 0", seed, rt.SetSplits())
		}
		if rt.QueuedTasks() != 0 {
			t.Fatalf("seed %d: %d tasks still queued", seed, rt.QueuedTasks())
		}
		// Every queue — dead or alive — must be empty, and the stealable
		// hints must have drained back to zero with them.
		for _, w := range rt.workers {
			if n := w.queued.Load(); n != 0 {
				t.Fatalf("seed %d: worker %d queued hint %d", seed, w.id, n)
			}
		}
		assertWorkerQueuesEmpty(t, rt, fmt.Sprintf("seed %d", seed))
	}
}
