package native

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/coolrts/cool/internal/core"
	"github.com/coolrts/cool/internal/fault"
	"github.com/coolrts/cool/internal/perfmon"
)

// elasticRuntime is testRuntime with spare capacity: the monitor and
// the Home lookup are sized to maxProcs so workers added mid-run have
// their own counter row and can be affinity homes (placements that land
// on a still-dead spare reroute through the ordinary dead-bit paths).
func elasticRuntime(t *testing.T, procs, maxProcs int, mut func(*Config)) (*Runtime, *perfmon.Monitor) {
	t.Helper()
	mon := perfmon.New(maxProcs)
	cfg := Config{
		Procs:       procs,
		MaxProcs:    maxProcs,
		ClusterSize: 4,
		PageSize:    4096,
		Pol:         core.DefaultPolicy(),
		Home:        func(addr int64) int { return int(addr/4096) % maxProcs },
		Mon:         mon,
	}
	if mut != nil {
		mut(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return rt, mon
}

// waitPoolSize blocks until the alive-worker count reaches want —
// drains complete asynchronously on the victims' own goroutines — and
// reports whether it got there. It is called from task bodies, that is
// on worker goroutines, where t.Fatalf's Goexit would skip workerExited
// and turn the failure into a hung Run: the caller returns instead.
func waitPoolSize(t *testing.T, rt *Runtime, want int) bool {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for rt.PoolSize() != want {
		if time.Now().After(deadline) {
			t.Errorf("pool size stuck at %d, want %d", rt.PoolSize(), want)
			return false
		}
		time.Sleep(20 * time.Microsecond)
	}
	return true
}

// waitGoroutines polls until the process goroutine count settles back
// near base — the grow/shrink leak guard.
func waitGoroutines(t *testing.T, label string, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%s: %d goroutines alive 2s after Run (baseline %d):\n%s",
				label, runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestElasticScaleUpDown is the acceptance scenario: a 4-worker pool
// grows to 16 mid-run, absorbs a burst targeted at every slot, and
// drains back to 4 — with zero task loss, zero set splits, exactly-once
// execution, and the full add/drain timeline in PoolEvents.
func TestElasticScaleUpDown(t *testing.T) {
	t.Run("deque", elasticScaleUpDown)
}

func elasticScaleUpDown(t *testing.T) {
	const procs, maxProcs = 4, 16
	const perBurst = 400
	rt, mon := elasticRuntime(t, procs, maxProcs, nil)
	var ran [3 * perBurst]int32
	pump := func(c *Ctx, burst int) {
		c.WaitFor(func() {
			for i := 0; i < perBurst; i++ {
				k := burst*perBurst + i
				var aff core.Affinity
				switch i % 3 {
				case 0:
					aff = core.Affinity{Kind: core.AffProcessor, Processor: i % maxProcs}
				case 1:
					aff = core.Affinity{Kind: core.AffTask, TaskObj: int64(1 + i%6*4096)}
				}
				c.Spawn("leaf", aff, nil, func(*Ctx) {
					atomic.AddInt32(&ran[k], 1)
					time.Sleep(5 * time.Microsecond)
				})
			}
		})
	}
	err := rt.Run(func(c *Ctx) {
		pump(c, 0) // at the initial size
		ids, err := rt.AddWorkers(maxProcs - procs)
		if err != nil {
			t.Errorf("AddWorkers: %v", err)
			return
		}
		if len(ids) != maxProcs-procs || rt.PoolSize() != maxProcs {
			t.Errorf("AddWorkers ids=%v PoolSize=%d, want %d workers", ids, rt.PoolSize(), maxProcs)
			return
		}
		pump(c, 1) // at full size
		if _, err := rt.DrainN(maxProcs - procs); err != nil {
			t.Errorf("DrainN: %v", err)
			return
		}
		if !waitPoolSize(t, rt, procs) {
			return
		}
		pump(c, 2) // back at the initial size
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for k, n := range ran {
		if n != 1 {
			t.Fatalf("task %d ran %d times, want exactly once", k, n)
		}
	}
	if rt.SetSplits() != 0 {
		t.Fatalf("SetSplits=%d want 0", rt.SetSplits())
	}
	if rt.QueuedTasks() != 0 {
		t.Fatalf("%d tasks still queued", rt.QueuedTasks())
	}
	for _, w := range rt.workers {
		if n := w.queued.Load(); n != 0 {
			t.Fatalf("worker %d queued hint %d", w.id, n)
		}
	}
	assertWorkerQueuesEmpty(t, rt, "scale-up-down")
	adds, drains := 0, 0
	for _, ev := range rt.PoolEvents() {
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
	if adds != maxProcs-procs || drains != maxProcs-procs {
		t.Fatalf("pool events: %d adds, %d drains, want %d each", adds, drains, maxProcs-procs)
	}
	var addedRan int64
	for id := procs; id < maxProcs; id++ {
		addedRan += mon.Per[id].TasksRun
	}
	if addedRan == 0 {
		t.Fatalf("workers added mid-run executed no tasks")
	}
}

// TestElasticChurnStress is the elastic torture test: a controller
// goroutine randomly grows and drains the pool (and a fault plan kills
// one worker outright) while spawners pump SpawnN bursts of mixed
// plain/processor/object/task-affinity work over shared hot sets. Under
// -race -count=3 it hammers every membership transition against
// concurrent placement and whole-set stealing; exactly-once execution,
// zero SetSplits, empty queues, settled hints, and no leaked goroutines
// are the invariants.
func TestElasticChurnStress(t *testing.T) {
	t.Run("deque", elasticChurnStress)
}

func elasticChurnStress(t *testing.T) {
	const procs, maxProcs = 4, 12
	const spawners = 12
	const perSpawner = 120
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		base := runtime.NumGoroutine()
		victim := 1 + rng.Intn(procs-1) // never worker 0: it carries the root waitfor
		p := (&fault.Plan{}).Fail(victim, int64(300_000+rng.Intn(700_000)))
		rt, mon := elasticRuntime(t, procs, maxProcs, func(cfg *Config) {
			cfg.Faults = p
			cfg.InvokeN = func(c *Ctx, payload any, i int) { payload.(func(*Ctx, int))(c, i) }
		})
		affs := make([][]core.Affinity, spawners)
		for i := range affs {
			affs[i] = make([]core.Affinity, perSpawner)
			for j := range affs[i] {
				switch rng.Intn(4) {
				case 0:
					affs[i][j] = core.Affinity{}
				case 1:
					// Hot sets shared across spawners so placements chase
					// homes that churn keeps moving.
					affs[i][j] = core.Affinity{Kind: core.AffTask, TaskObj: int64(1 + rng.Intn(6)*4096)}
				case 2:
					affs[i][j] = core.Affinity{Kind: core.AffObject, ObjectObj: int64(1 + rng.Intn(32)*4096)}
				case 3:
					affs[i][j] = core.Affinity{Kind: core.AffProcessor, Processor: rng.Intn(maxProcs)}
				}
			}
		}
		var ran [spawners * perSpawner]int32
		stop := make(chan struct{})
		churnDone := make(chan struct{})
		err := rt.Run(func(c *Ctx) {
			go func() {
				// The churn controller: random grows and planned drains,
				// concurrent with the fault-injected kill. Capacity-
				// exhausted and survivor-rule errors are expected — the
				// point is that no interleaving loses work.
				defer close(churnDone)
				crng := rand.New(rand.NewSource(seed * 77))
				for {
					select {
					case <-stop:
						return
					default:
					}
					rt.AddWorkers(1 + crng.Intn(4))
					time.Sleep(time.Duration(30+crng.Intn(120)) * time.Microsecond)
					rt.DrainN(1 + crng.Intn(3))
					time.Sleep(time.Duration(30+crng.Intn(120)) * time.Microsecond)
				}
			}()
			c.WaitFor(func() {
				for i := 0; i < spawners; i++ {
					i := i
					c.Spawn("spawner", core.Affinity{Kind: core.AffProcessor, Processor: i % procs}, nil, func(c *Ctx) {
						c.SpawnN("leaf", perSpawner, func(j int) (core.Affinity, *Monitor, int8, int64) {
							return affs[i][j], nil, 0, 0
						}, func(_ *Ctx, j int) {
							atomic.AddInt32(&ran[i*perSpawner+j], 1)
							time.Sleep(10 * time.Microsecond)
						})
					})
				}
			})
			close(stop)
			<-churnDone
		})
		if err != nil {
			t.Fatalf("seed %d: Run: %v", seed, err)
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
		// Every queue — alive, drained, killed, or spare — must be empty
		// with its hints settled back to zero.
		for _, w := range rt.workers {
			if n := w.queued.Load(); n != 0 {
				t.Fatalf("seed %d: worker %d queued hint %d", seed, w.id, n)
			}
		}
		assertWorkerQueuesEmpty(t, rt, fmt.Sprintf("seed %d", seed))
		kills := 0
		for _, ev := range rt.PoolEvents() {
			if ev.Kind == "kill" {
				kills++
				if ev.Proc != victim {
					t.Fatalf("seed %d: kill event on worker %d, victim was %d", seed, ev.Proc, victim)
				}
			}
		}
		if kills > 1 {
			t.Fatalf("seed %d: %d kill events for one Fail", seed, kills)
		}
		waitGoroutines(t, fmt.Sprintf("seed %d", seed), base)
	}
}

// TestElasticValidation covers the rejection surface: growth without
// capacity, over-growth, draining the last worker, double drains, and
// out-of-range ids.
func TestElasticValidation(t *testing.T) {
	// A fixed pool refuses elastic calls outright.
	fixed, _ := testRuntime(t, 2, nil)
	err := fixed.Run(func(c *Ctx) {
		if _, err := fixed.AddWorkers(1); err == nil {
			t.Error("AddWorkers on a fixed pool succeeded")
		}
		if err := fixed.Drain(1); err == nil {
			t.Error("Drain on a fixed pool succeeded")
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	rt, _ := elasticRuntime(t, 2, 4, nil)
	// Outside a run both directions are refused.
	if _, err := rt.AddWorkers(1); err == nil {
		t.Fatal("AddWorkers before Run succeeded")
	}
	if err := rt.Drain(1); err == nil {
		t.Fatal("Drain before Run succeeded")
	}
	err = rt.Run(func(c *Ctx) {
		if _, err := rt.AddWorkers(0); err == nil {
			t.Error("AddWorkers(0) succeeded")
		}
		if _, err := rt.AddWorkers(3); err == nil {
			t.Error("AddWorkers past capacity succeeded")
		}
		if err := rt.Drain(7); err == nil {
			t.Error("Drain of an out-of-range id succeeded")
		}
		if err := rt.Drain(3); err == nil {
			t.Error("Drain of a dead spare succeeded")
		}
		if err := rt.Drain(0, 1); err == nil {
			t.Error("Drain of the whole pool succeeded")
		}
		if err := rt.Drain(1, 1); err == nil {
			t.Error("duplicate Drain ids succeeded")
		}
		if err := rt.Drain(1); err != nil {
			t.Errorf("Drain(1): %v", err)
		}
		if err := rt.Drain(1); err == nil {
			t.Error("second Drain of a draining worker succeeded")
		}
		if err := rt.Drain(0); err == nil {
			t.Error("Drain leaving zero undrained workers succeeded")
		}
		if !waitPoolSize(t, rt, 1) {
			return
		}
		// The freed slot is a spare again: growth brings it back.
		if ids, err := rt.AddWorkers(1); err != nil || len(ids) != 1 {
			t.Errorf("AddWorkers after drain: ids=%v err=%v", ids, err)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestShedExpiredDeadline spawns tasks whose deadline has already
// passed: the SLO layer must shed every one at dispatch — counted as
// deadline misses, completing their scope — while in-deadline siblings
// run normally.
func TestShedExpiredDeadline(t *testing.T) {
	rt, mon := testRuntime(t, 2, func(cfg *Config) {
		cfg.Shed = &ShedPolicy{}
	})
	const n = 50
	var ran atomic.Int64
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			for i := 0; i < n; i++ {
				// 1ns after start: expired by dispatch time.
				c.rt.spawn(c, "late", core.Affinity{}, nil, func(*Ctx) { ran.Add(1) }, nil, -1, 0, 1)
				c.rt.spawn(c, "fresh", core.Affinity{}, nil, func(*Ctx) { ran.Add(1) }, nil, -1, 0, time.Hour.Nanoseconds())
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	total := mon.Total()
	if total.DeadlineMisses != n || total.TasksShed != n {
		t.Fatalf("DeadlineMisses=%d TasksShed=%d, want %d each", total.DeadlineMisses, total.TasksShed, n)
	}
	if ran.Load() != n {
		t.Fatalf("ran %d tasks, want %d (only the in-deadline half)", ran.Load(), n)
	}
	if rt.QueuedTasks() != 0 {
		t.Fatalf("%d tasks still queued", rt.QueuedTasks())
	}
}

// TestShedPriorityFloor drives a single worker far past the backlog
// watermark with a mix of priority classes: the floor controller must
// shed from the lowest class first, and class 7 must never be shed on
// priority grounds — every priority-7 task runs even under maximal
// overload.
func TestShedPriorityFloor(t *testing.T) {
	rt, mon := testRuntime(t, 1, func(cfg *Config) {
		cfg.Shed = &ShedPolicy{QueueHighWater: 1}
	})
	const low, high = 400, 40
	var ranLow, ranHigh atomic.Int64
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			for i := 0; i < low; i++ {
				c.rt.spawn(c, "low", core.Affinity{}, nil, func(*Ctx) {
					ranLow.Add(1)
					time.Sleep(100 * time.Microsecond)
				}, nil, -1, 0, 0)
			}
			for i := 0; i < high; i++ {
				c.rt.spawn(c, "high", core.Affinity{}, nil, func(*Ctx) {
					ranHigh.Add(1)
					time.Sleep(100 * time.Microsecond)
				}, nil, -1, 7, 0)
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	total := mon.Total()
	if ranHigh.Load() != high {
		t.Fatalf("only %d of %d priority-7 tasks ran; class 7 must never be shed", ranHigh.Load(), high)
	}
	if total.TasksShed == 0 {
		t.Fatal("overload shed nothing: the floor never engaged")
	}
	if got := ranLow.Load() + total.TasksShed; got != low {
		t.Fatalf("low-priority ran %d + shed %d = %d, want %d (every task runs or sheds exactly once)",
			ranLow.Load(), total.TasksShed, got, low)
	}
	if total.DeadlineMisses != 0 {
		t.Fatalf("DeadlineMisses=%d on a deadline-free run", total.DeadlineMisses)
	}
}

// TestShedRetryDefers arms RetryShed: below-floor tasks re-queue with
// backoff instead of dropping, so once the backlog clears they still
// run — shedding degrades latency, not completeness, when the retry
// budget suffices.
func TestShedRetryDefers(t *testing.T) {
	rt, mon := testRuntime(t, 1, func(cfg *Config) {
		cfg.Shed = &ShedPolicy{QueueHighWater: 1, RetryShed: true}
		cfg.Retry = fault.RetryPolicy{MaxAttempts: 100, Backoff: 100_000}
	})
	const n = 200
	var ran atomic.Int64
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			for i := 0; i < n; i++ {
				c.rt.spawn(c, "work", core.Affinity{}, nil, func(*Ctx) {
					ran.Add(1)
					time.Sleep(50 * time.Microsecond)
				}, nil, -1, int8(i%2), 0)
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	total := mon.Total()
	if got := ran.Load() + total.TasksShed; got != n {
		t.Fatalf("ran %d + shed %d = %d, want %d", ran.Load(), total.TasksShed, got, n)
	}
	if ran.Load() < n/2 {
		t.Fatalf("only %d of %d tasks ran; RetryShed should defer, not drop, most work", ran.Load(), n)
	}
}

// TestDrainFloorCountsPendingDrains checks the survivor rule with drains
// outstanding: workers asked to retire are still alive until their next
// dispatch point, and counting them would let a later Drain empty the
// pool.
func TestDrainFloorCountsPendingDrains(t *testing.T) {
	rt, _ := elasticRuntime(t, 3, 4, nil)
	rt.start = time.Now()
	rt.running = true // no goroutines: Drain only checks the flag
	ids, err := rt.DrainN(2)
	if err != nil {
		t.Fatalf("DrainN(2) on a 3-worker pool: %v", err)
	}
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 1 {
		t.Fatalf("DrainN(2) chose %v, want [2 1]", ids)
	}
	err = rt.Drain(0) // workers 1 and 2 have not retired yet
	if err == nil || !strings.Contains(err.Error(), "would leave the pool empty") {
		t.Fatalf("Drain(0) with 1 and 2 still draining = %v, want the empty-pool refusal", err)
	}
	if rt.isDead(1) || rt.isDead(2) {
		t.Fatal("draining workers retired without a goroutine to observe the request")
	}
}

// TestParkSeesDrainRequest is the drain-versus-park race made
// deterministic: the request and its one wake token arrive after the
// loop's top-of-iteration check, park drops the token on entry, and must
// still return on the request alone.
func TestParkSeesDrainRequest(t *testing.T) {
	rt, _ := elasticRuntime(t, 2, 4, nil)
	rt.start = time.Now()
	rt.running = true
	t.Cleanup(func() { close(rt.done) }) // releases park if it did sleep
	if err := rt.Drain(1); err != nil {
		t.Fatalf("Drain(1): %v", err)
	}
	returned := make(chan struct{})
	go func() {
		rt.park(rt.workers[1], 1)
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("park slept through a pending drain request")
	}
}

// TestFixedPoolReportsNoPoolEvents pins the healthy-run baseline: a
// fixed-size fault-free run must report an empty membership timeline.
func TestFixedPoolReportsNoPoolEvents(t *testing.T) {
	rt, _ := testRuntime(t, 4, nil)
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			for i := 0; i < 100; i++ {
				c.Spawn("t", core.Affinity{}, nil, func(*Ctx) {})
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if evs := rt.PoolEvents(); len(evs) != 0 {
		t.Fatalf("healthy fixed-size run reported pool events: %+v", evs)
	}
	if rt.PoolSize() != 4 {
		t.Fatalf("PoolSize=%d want 4", rt.PoolSize())
	}
}
