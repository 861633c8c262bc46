package native

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/coolrts/cool/internal/core"
)

// TestStallBackoffSequence pins the exponential park backoff: the first
// timed park waits backoffBase, each further consecutive miss doubles
// it, and the wait saturates at backoffCap.
func TestStallBackoffSequence(t *testing.T) {
	want := []time.Duration{
		20 * time.Microsecond,  // misses == parkRetryLimit
		40 * time.Microsecond,  // +1
		80 * time.Microsecond,  // +2
		160 * time.Microsecond, // +3
		320 * time.Microsecond, // +4
		640 * time.Microsecond, // +5
		time.Millisecond,       // +6: saturated
		time.Millisecond,       // +7: stays saturated
	}
	for i, w := range want {
		if got := stallBackoff(parkRetryLimit + i); got != w {
			t.Fatalf("stallBackoff(%d) = %v, want %v", parkRetryLimit+i, got, w)
		}
	}
	// Misses below the limit never reach a timed park, but the function
	// must still answer sanely (the base) if asked.
	for m := 0; m < parkRetryLimit; m++ {
		if got := stallBackoff(m); got != backoffBase {
			t.Fatalf("stallBackoff(%d) = %v, want %v", m, got, backoffBase)
		}
	}
	// Very large miss counts must not overflow into tiny or negative
	// durations.
	if got := stallBackoff(1 << 30); got != backoffCap {
		t.Fatalf("stallBackoff(big) = %v, want %v", got, backoffCap)
	}
}

// assertWorkerQueuesEmpty checks, after a quiesced run, that every
// queue structure on every worker — Chase-Lev deque, locked plain
// queue, and the affinity slots — drained completely, and that every
// lock-free hint
// (queued, stealable, lockedWork, setQueued) settled back to zero.
// A residual entry means a task was lost; residual hints mean a
// counter-maintenance path missed a decrement.
func assertWorkerQueuesEmpty(t *testing.T, rt *Runtime, label string) {
	t.Helper()
	for _, w := range rt.workers {
		if n := w.deq.size(); n != 0 {
			t.Fatalf("%s: worker %d deque size %d", label, w.id, n)
		}
		if w.q.Plain.Len() != 0 {
			t.Fatalf("%s: worker %d pinned queue size %d", label, w.id, w.q.Plain.Len())
		}
		if n := w.stealable.Load(); n != 0 {
			t.Fatalf("%s: worker %d stealable hint drifted to %d", label, w.id, n)
		}
		if n := w.lockedWork.Load(); n != 0 {
			t.Fatalf("%s: worker %d lockedWork hint drifted to %d", label, w.id, n)
		}
		if n := w.setQueued.Load(); n != 0 {
			t.Fatalf("%s: worker %d setQueued hint drifted to %d", label, w.id, n)
		}
		for s := range w.q.Slots {
			if w.q.Slots[s].Len() != 0 {
				t.Fatalf("%s: worker %d slot %d size %d", label, w.id, s, w.q.Slots[s].Len())
			}
		}
	}
}

// TestConcurrentSetStealStress hammers the decentralized placement
// protocol: many workers concurrently spawn randomized mixes of plain,
// processor-, object-, and task-affinity work while steals relocate
// whole sets between them, and cluster-only stealing is flipped
// mid-run. Run under -race with -count=3, it is the torture test for
// the worker-lock/shard-lock ordering: a missed revalidation in
// placeSet or a racy whole-set move shows up as a set split, a lost
// task, or a residual queue entry.
func TestConcurrentSetStealStress(t *testing.T) {
	t.Run("deque", concurrentSetStealStress)
}

func concurrentSetStealStress(t *testing.T) {
	const procs = 12 // three clusters of four
	for _, seed := range []int64{1, 2, 3} {
		rt, mon := testRuntime(t, procs, func(cfg *Config) {
			cfg.Pol.ClusterStealFirst = true
		})
		rng := rand.New(rand.NewSource(seed))
		// Pre-draw every spawn's affinity outside the tasks (the rng is
		// not goroutine-safe).
		const spawners = 16
		const perSpawner = 120
		affs := make([][]core.Affinity, spawners)
		for i := range affs {
			affs[i] = make([]core.Affinity, perSpawner)
			for j := range affs[i] {
				switch rng.Intn(4) {
				case 0:
					affs[i][j] = core.Affinity{}
				case 1:
					// A handful of hot sets shared across spawners, so
					// placements chase sets that steals keep re-homing.
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
							c.Spawn("leaf", a, nil, func(*Ctx) { ran[k]++ })
							if j == perSpawner/2 {
								// Flip the steal scope mid-stream; both
								// halves must still drain.
								rt.SetClusterStealingOnly(i%2 == 0)
							}
						}
						rt.SetClusterStealingOnly(false)
					})
				}
			})
		})
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
		}
		for k, n := range ran {
			if n != 1 {
				t.Fatalf("seed %d: task %d ran %d times", seed, k, n)
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
		// Every queue must be empty — a task left on a slot whose
		// non-empty link was lost would hide from QueuedTasks.
		assertWorkerQueuesEmpty(t, rt, fmt.Sprintf("seed %d", seed))
	}
}
