package native

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/coolrts/cool/internal/core"
	"github.com/coolrts/cool/internal/fault"
	"github.com/coolrts/cool/internal/perfmon"
)

// QueuedTasks returns the tasks currently enqueued machine-wide.
func (rt *Runtime) QueuedTasks() int { return int(rt.queuedTotal.Load()) }

// testRuntime builds a runtime whose Home lookup spreads object
// addresses across workers page by page.
func testRuntime(t *testing.T, procs int, mut func(*Config)) (*Runtime, *perfmon.Monitor) {
	t.Helper()
	mon := perfmon.New(procs)
	cfg := Config{
		Procs:       procs,
		ClusterSize: 4,
		PageSize:    4096,
		Pol:         core.DefaultPolicy(),
		Home:        func(addr int64) int { return int(addr/4096) % procs },
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

func TestRunsEveryTask(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8} {
		rt, mon := testRuntime(t, procs, nil)
		var ran atomic.Int64
		const n = 500
		err := rt.Run(func(c *Ctx) {
			c.WaitFor(func() {
				for i := 0; i < n; i++ {
					aff := core.Affinity{}
					switch i % 4 {
					case 1:
						aff = core.Affinity{Kind: core.AffTask, TaskObj: int64(1 + i%8*4096)}
					case 2:
						aff = core.Affinity{Kind: core.AffObject, ObjectObj: int64(1 + i%16*4096)}
					case 3:
						aff = core.Affinity{Kind: core.AffProcessor, Processor: i}
					}
					c.Spawn("t", aff, nil, func(*Ctx) { ran.Add(1) })
				}
			})
		})
		if err != nil {
			t.Fatalf("procs=%d: Run: %v", procs, err)
		}
		if ran.Load() != n {
			t.Fatalf("procs=%d: ran %d of %d tasks", procs, ran.Load(), n)
		}
		total := mon.Total()
		if total.TasksRun != n+1 { // + the root task
			t.Fatalf("procs=%d: TasksRun=%d want %d", procs, total.TasksRun, n+1)
		}
		if rt.SetSplits() != 0 {
			t.Fatalf("procs=%d: SetSplits=%d want 0", procs, rt.SetSplits())
		}
		if rt.QueuedTasks() != 0 {
			t.Fatalf("procs=%d: %d tasks still queued after Run", procs, rt.QueuedTasks())
		}
	}
}

// TestP1DispatchOrder checks the local dispatch priority on a single
// worker: the task-affinity queue is drained back to back ahead of the
// plain queue, exactly like the simulator's server.
func TestP1DispatchOrder(t *testing.T) {
	rt, _ := testRuntime(t, 1, nil)
	var order []string
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			rec := func(name string) func(*Ctx) {
				return func(*Ctx) { order = append(order, name) }
			}
			c.Spawn("plain1", core.Affinity{}, nil, rec("plain1"))
			c.Spawn("setA1", core.Affinity{Kind: core.AffTask, TaskObj: 4096}, nil, rec("setA1"))
			c.Spawn("plain2", core.Affinity{}, nil, rec("plain2"))
			c.Spawn("setA2", core.Affinity{Kind: core.AffTask, TaskObj: 4096}, nil, rec("setA2"))
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := strings.Join(order, " ")
	want := "setA1 setA2 plain1 plain2"
	if got != want {
		t.Fatalf("P=1 dispatch order = %q, want %q", got, want)
	}
}

// TestWholeSetStealMovesEverything drives stealFrom directly: a victim
// holding a three-member task-affinity set plus a plain task must lose
// the whole set in one steal, with the set re-homed to the thief and the
// plain task on the victim's deque left alone.
func TestWholeSetStealMovesEverything(t *testing.T) {
	rt, mon := testRuntime(t, 2, nil)
	v, w := rt.workers[0], rt.workers[1]
	const obj = int64(4096)
	slot := rt.topo.SlotOf(obj)
	rt.shardOf(obj).home[obj] = 0
	for i := 0; i < 3; i++ {
		st := rt.newTask(nil)
		st.name, st.fn = "set", func(*Ctx) {}
		rt.placeTask(st, core.Affinity{Kind: core.AffTask, TaskObj: obj}, 0)
		rt.placeSet(st, &mon.Per[0])
	}
	pl := rt.newTask(nil)
	pl.name, pl.fn = "plain", func(*Ctx) {}
	pl.Class, pl.server = core.ClassPlain, 0
	rt.insert(pl, 0)

	got := rt.stealFrom(v, w)
	if got == nil || got.AffObj != obj {
		t.Fatalf("stealFrom returned %+v, want head of set %d", got, obj)
	}
	if home := rt.setHomeOf(obj); home != 1 {
		t.Fatalf("set home = %d after steal, want thief 1", home)
	}
	if n := w.q.Slots[slot].Len(); n != 2 {
		t.Fatalf("thief slot holds %d set members, want 2", n)
	}
	if w.q.Cur != &w.q.Slots[slot] {
		t.Fatalf("thief cur not pointed at the stolen set's slot")
	}
	if v.q.Slots[slot].Len() != 0 {
		t.Fatalf("victim still holds %d set members: set split", v.q.Slots[slot].Len())
	}
	if rt.SetSplits() != 0 {
		t.Fatalf("SetSplits=%d want 0", rt.SetSplits())
	}
	if mon.Per[1].SetSteals != 1 {
		t.Fatalf("SetSteals=%d want 1", mon.Per[1].SetSteals)
	}
	if v.deq.size() != 1 || v.q.Plain.Len() != 0 {
		t.Fatalf("victim plain work disturbed: deq=%d pinned=%d, want 1, 0", v.deq.size(), v.q.Plain.Len())
	}
}

// TestStealSkipsPinnedHead: a processor-affinity task queued ahead of a
// free task must not be stolen while the free task is there to take, and
// a lone pinned task must not be stolen at all. The owner's own pinned
// spawn goes into its locked plain queue and its free one onto its deque.
func TestStealSkipsPinnedHead(t *testing.T) {
	rt, _ := testRuntime(t, 2, nil)
	v, w := rt.workers[0], rt.workers[1]
	pin := rt.newTask(nil)
	pin.name, pin.fn = "pinned", func(*Ctx) {}
	pin.Class, pin.server = core.ClassProcessor, 0
	rt.insert(pin, 0)
	free := rt.newTask(nil)
	free.name, free.fn = "free", func(*Ctx) {}
	free.Class, free.server = core.ClassPlain, 0
	rt.insert(free, 0)
	if v.q.Plain.Len() != 1 || v.deq.size() != 1 {
		t.Fatalf("setup: pinned=%d deq=%d, want the pinned task in the locked queue and the free one on the deque",
			v.q.Plain.Len(), v.deq.size())
	}

	got := rt.stealFrom(v, w)
	if got == nil || got.name != "free" {
		t.Fatalf("stole %v, want the free task behind the pinned head", got)
	}
	// Now only the pinned task remains (queued=1): not stealable.
	got = rt.stealFrom(v, w)
	if got != nil {
		t.Fatalf("stole lone pinned task %q", got.name)
	}
	if v.deq.size() != 0 || v.q.Plain.Len() != 1 || v.queued.Load() != 1 {
		t.Fatalf("pinned task not left in the victim's locked queue: deq=%d pinned=%d queued=%d",
			v.deq.size(), v.q.Plain.Len(), v.queued.Load())
	}
}

// TestObjectBoundStolenOnlyFromBacklog: object-affinity tasks move only
// when the victim has at least two queued tasks. The owner's own
// object-bound spawns go straight into its locked slot queues.
func TestObjectBoundStolenOnlyFromBacklog(t *testing.T) {
	rt, _ := testRuntime(t, 2, nil)
	v, w := rt.workers[0], rt.workers[1]
	mk := func(addr int64) {
		ob := rt.newTask(nil)
		ob.name, ob.fn = "ob", func(*Ctx) {}
		ob.Class, ob.server, ob.Slot, ob.AffObj = core.ClassObjectBound, 0, rt.topo.SlotOf(addr), addr
		rt.insert(ob, 0)
	}
	mk(64)
	if v.lockedWork.Load() != 1 || v.stealable.Load() != 0 {
		t.Fatalf("setup left lockedWork=%d stealable=%d, want 1 and 0", v.lockedWork.Load(), v.stealable.Load())
	}
	got := rt.stealFrom(v, w)
	if got != nil {
		t.Fatalf("stole object-bound task from a victim with queued=1")
	}
	mk(128)
	got = rt.stealFrom(v, w)
	if got == nil || got.Class != core.ClassObjectBound {
		t.Fatalf("want an object-bound steal from a backlogged victim, got %v", got)
	}
}

// TestDequeWholeSetSteal is TestWholeSetStealMovesEverything for the
// default deque scheduler: the whole set moves in one steal via the
// sets-first phase, a plain task on the victim's deque is untouched by
// it and then taken by a CAS-only plain steal, and the lock-free hints
// (setQueued, stealable, queued) end with zero drift.
func TestDequeWholeSetSteal(t *testing.T) {
	rt, mon := testRuntime(t, 2, nil)
	v, w := rt.workers[0], rt.workers[1]
	const obj = int64(4096)
	slot := rt.topo.SlotOf(obj)
	rt.shardOf(obj).home[obj] = 0
	ctr := &mon.Per[0]
	for i := 0; i < 3; i++ {
		st := rt.newTask(nil)
		st.name, st.fn = "set", func(*Ctx) {}
		rt.placeTask(st, core.Affinity{Kind: core.AffTask, TaskObj: obj}, 0)
		rt.placeSet(st, ctr)
	}
	pl := rt.newTask(nil)
	pl.name, pl.fn = "plain", func(*Ctx) {}
	pl.Class, pl.server = core.ClassPlain, 0
	rt.insert(pl, 0) // actor 0 == target: straight onto v's deque

	if v.setQueued.Load() != 3 || v.deq.size() != 1 {
		t.Fatalf("setup: setQueued=%d deq=%d, want 3 and 1", v.setQueued.Load(), v.deq.size())
	}
	got := rt.stealFrom(v, w)
	if got == nil || got.AffObj != obj {
		t.Fatalf("stealFrom returned %+v, want head of set %d", got, obj)
	}
	if home := rt.setHomeOf(obj); home != 1 {
		t.Fatalf("set home = %d after steal, want thief 1", home)
	}
	if n := w.q.Slots[slot].Len(); n != 2 {
		t.Fatalf("thief slot holds %d set members, want 2", n)
	}
	if v.q.Slots[slot].Len() != 0 || v.setQueued.Load() != 0 || v.lockedWork.Load() != 0 {
		t.Fatalf("victim kept set state: slot=%d setQueued=%d lockedWork=%d",
			v.q.Slots[slot].Len(), v.setQueued.Load(), v.lockedWork.Load())
	}
	if w.setQueued.Load() != 2 || w.lockedWork.Load() != 2 {
		t.Fatalf("thief hints setQueued=%d lockedWork=%d, want 2 and 2",
			w.setQueued.Load(), w.lockedWork.Load())
	}
	if mon.Per[1].SetSteals != 1 {
		t.Fatalf("SetSteals=%d want 1", mon.Per[1].SetSteals)
	}
	if v.deq.size() != 1 {
		t.Fatalf("victim deque disturbed by the set steal: size=%d want 1", v.deq.size())
	}
	got = rt.stealFrom(v, w)
	if got == nil || got.name != "plain" {
		t.Fatalf("plain deque steal returned %v, want the plain task", got)
	}
	if v.queued.Load() != 0 || v.stealable.Load() != 0 {
		t.Fatalf("victim hint drift after drain: queued=%d stealable=%d",
			v.queued.Load(), v.stealable.Load())
	}
}

// TestDequeStealRules covers the single-task rules on the locked queues,
// which is where every record another goroutine inserts lands: a plain
// one joins the locked plain queue and is stolen freely from behind a
// pinned head, pinned tasks are stolen only when the victim is
// backlogged, and object-bound tasks only under the same backlog rule.
func TestDequeStealRules(t *testing.T) {
	rt, mon := testRuntime(t, 2, nil)
	v, w := rt.workers[0], rt.workers[1]
	ctr := &mon.Per[1]
	mkPin := func(name string) {
		pin := rt.newTask(nil)
		pin.name, pin.fn = name, func(*Ctx) {}
		pin.Class, pin.server = core.ClassProcessor, 0
		rt.insertFrom(pin, ctr, nil) // not v's goroutine: under v's lock
	}
	mkPin("pin1")
	free := rt.newTask(nil)
	free.name, free.fn = "free", func(*Ctx) {}
	free.Class, free.server = core.ClassPlain, 0
	rt.insertFrom(free, ctr, nil)
	if v.q.Plain.Len() != 2 || v.deq.size() != 0 || v.lockedWork.Load() != 2 || v.stealable.Load() != 1 {
		t.Fatalf("setup: pinned=%d deq=%d lockedWork=%d stealable=%d, want both records in the locked plain queue, one stealable",
			v.q.Plain.Len(), v.deq.size(), v.lockedWork.Load(), v.stealable.Load())
	}

	// The scan must pass the pinned head and take the plain record.
	got := rt.stealFrom(v, w)
	if got == nil || got.name != "free" {
		t.Fatalf("stole %v, want the free task behind the pinned head", got)
	}
	if v.q.Plain.Len() != 1 || v.lockedWork.Load() != 1 || v.queued.Load() != 1 || v.stealable.Load() != 0 {
		t.Fatalf("after the free steal: pinned=%d lockedWork=%d queued=%d stealable=%d, want 1, 1, 1, 0",
			v.q.Plain.Len(), v.lockedWork.Load(), v.queued.Load(), v.stealable.Load())
	}
	// A lone pinned record is not stealable.
	if got = rt.stealFrom(v, w); got != nil {
		t.Fatalf("stole lone pinned task %q", got.name)
	}
	// Backlogged (queued=2): the pinned head may move.
	mkPin("pin2")
	if got = rt.stealFrom(v, w); got == nil || got.Class != core.ClassProcessor {
		t.Fatalf("want a pinned steal from a backlogged victim, got %v", got)
	}

	// Object-bound: same backlog rule, via the slot queues.
	rt2, mon2 := testRuntime(t, 2, nil)
	v2, w2 := rt2.workers[0], rt2.workers[1]
	mkOb := func(addr int64) {
		ob := rt2.newTask(nil)
		ob.name, ob.fn = "ob", func(*Ctx) {}
		ob.Class, ob.server, ob.Slot, ob.AffObj = core.ClassObjectBound, 0, rt2.topo.SlotOf(addr), addr
		rt2.insertFrom(ob, &mon2.Per[1], nil)
	}
	mkOb(64)
	if got := rt2.stealFrom(v2, w2); got != nil {
		t.Fatalf("stole object-bound task from a victim with queued=1")
	}
	mkOb(128)
	if got := rt2.stealFrom(v2, w2); got == nil || got.Class != core.ClassObjectBound {
		t.Fatalf("want an object-bound steal from a backlogged victim, got %v", got)
	}
}

// TestMonitorCountsBlockedAcquisitions: a Lock that finds the monitor
// held counts exactly one blocked acquisition, an uncontended one none.
// The holder unlocks only once the second locker's goroutine is parked
// in the monitor's mutex — read from its wait reason, not assumed after
// a sleep — so the second Lock cannot find the monitor free.
func TestMonitorCountsBlockedAcquisitions(t *testing.T) {
	rt, mon := testRuntime(t, 1, nil)
	m := &Monitor{}
	c := &Ctx{w: rt.workers[0], rt: rt}
	c.Lock(m)
	if mon.Per[0].LockBlocks != 0 {
		t.Fatalf("uncontended Lock counted as blocked")
	}
	done := make(chan struct{})
	go func() {
		c2 := &Ctx{w: rt.workers[0], rt: rt}
		c2.Lock(m)
		c2.Unlock(m)
		close(done)
	}()
	waitParkedOnMutex("TestMonitorCountsBlockedAcquisitions.func1")
	c.Unlock(m)
	<-done
	if mon.Per[0].LockBlocks != 1 {
		t.Fatalf("LockBlocks=%d want 1", mon.Per[0].LockBlocks)
	}
}

// waitParkedOnMutex returns once a goroutine running fn is parked in
// sync.Mutex.Lock.
func waitParkedOnMutex(fn string) {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		for _, g := range strings.Split(string(buf[:n]), "\n\n") {
			header, _, _ := strings.Cut(g, "\n")
			if strings.Contains(header, "[sync.Mutex.Lock") && strings.Contains(g, fn) {
				return
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestMutexTasksSerialize(t *testing.T) {
	rt, _ := testRuntime(t, 8, nil)
	m := &Monitor{}
	var inside, maxInside, total int64
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			for i := 0; i < 200; i++ {
				c.Spawn("mx", core.Affinity{}, m, func(*Ctx) {
					n := atomic.AddInt64(&inside, 1)
					if n > atomic.LoadInt64(&maxInside) {
						atomic.StoreInt64(&maxInside, n)
					}
					total++ // monitor-protected; the race detector checks it
					atomic.AddInt64(&inside, -1)
				})
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if maxInside != 1 {
		t.Fatalf("%d mutex tasks ran concurrently", maxInside)
	}
	if total != 200 {
		t.Fatalf("total=%d want 200", total)
	}
}

func TestPanicBecomesTaskFailure(t *testing.T) {
	rt, _ := testRuntime(t, 2, nil)
	var after atomic.Int64
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			c.Spawn("boom", core.Affinity{}, nil, func(*Ctx) { panic("kaput") })
			for i := 0; i < 50; i++ {
				c.Spawn("ok", core.Affinity{}, nil, func(*Ctx) { after.Add(1) })
			}
		})
	})
	f, ok := err.(*fault.TaskFailure)
	if !ok {
		t.Fatalf("Run returned %v, want *fault.TaskFailure", err)
	}
	if f.Task != "boom" || f.Value != "kaput" || f.Stack == "" {
		t.Fatalf("failure = %+v", f)
	}
	if after.Load() != 50 {
		t.Fatalf("only %d healthy tasks completed after the panic", after.Load())
	}
}

func TestNestedWaitFor(t *testing.T) {
	rt, _ := testRuntime(t, 4, nil)
	var sum atomic.Int64
	err := rt.Run(func(c *Ctx) {
		c.WaitFor(func() {
			for i := 0; i < 8; i++ {
				c.Spawn("outer", core.Affinity{}, nil, func(c *Ctx) {
					c.WaitFor(func() {
						for j := 0; j < 8; j++ {
							c.Spawn("inner", core.Affinity{}, nil, func(*Ctx) { sum.Add(1) })
						}
					})
					sum.Add(100)
				})
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Load() != 8*8+8*100 {
		t.Fatalf("sum=%d want %d", sum.Load(), 8*8+8*100)
	}
}

func TestCondSignalBroadcast(t *testing.T) {
	rt, _ := testRuntime(t, 4, nil)
	m := &Monitor{}
	cv := &Cond{}
	var stage int
	var woken atomic.Int64
	var wg sync.WaitGroup
	c := &Ctx{w: rt.workers[0], rt: rt}
	for i := 1; i <= 3; i++ {
		wg.Add(1)
		w := rt.workers[i] // a row each: Lock counts blocks on its caller's perfmon row
		go func() {
			defer wg.Done()
			cc := &Ctx{w: w, rt: rt}
			cc.Lock(m)
			for stage == 0 {
				cc.Wait(cv, m)
			}
			woken.Add(1)
			cc.Unlock(m)
		}()
	}
	time.Sleep(5 * time.Millisecond)
	c.Lock(m)
	stage = 1
	c.Signal(cv)
	c.Broadcast(cv)
	c.Unlock(m)
	wg.Wait()
	if woken.Load() != 3 {
		t.Fatalf("woken=%d want 3", woken.Load())
	}
}

func TestVictimRings(t *testing.T) {
	rt, _ := testRuntime(t, 8, nil)
	// Thief 1 (cluster {0..3}): cluster ring walks (1+d)%8 restricted to
	// the cluster, remote ring the rest, both in probe order.
	wantCluster := []int{2, 3, 0}
	wantRemote := []int{4, 5, 6, 7}
	r := &rt.workers[1].rings
	if got := r.Cluster; !equalInts(got, wantCluster) {
		t.Fatalf("worker 1 cluster ring=%v want %v", got, wantCluster)
	}
	if got := r.Remote; !equalInts(got, wantRemote) {
		t.Fatalf("worker 1 remote ring=%v want %v", got, wantRemote)
	}
	if got := r.Flat; len(got) != 7 {
		t.Fatalf("worker 1 flat ring=%v want 7 victims", got)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWakeCountersAccumulate: spawning from a running task charges
// targeted or broadcast wakes to the spawner's row. Wakes are only
// counted when a token is actually deposited, so wait for at least one
// sibling to park before spawning.
func TestWakeCountersAccumulate(t *testing.T) {
	rt, mon := testRuntime(t, 4, nil)
	err := rt.Run(func(c *Ctx) {
		for rt.parked.Load() == 0 {
			runtime.Gosched()
		}
		c.WaitFor(func() {
			for i := 0; i < 100; i++ {
				c.Spawn("w", core.Affinity{}, nil, func(*Ctx) {})
			}
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	total := mon.Total()
	if total.TargetedWakes+total.BroadcastWakes == 0 {
		t.Fatalf("no wake events counted across 100 spawns")
	}
}

func TestRunTwiceFails(t *testing.T) {
	rt, _ := testRuntime(t, 1, nil)
	if err := rt.Run(func(*Ctx) {}); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if err := rt.Run(func(*Ctx) {}); err == nil {
		t.Fatalf("second Run succeeded")
	}
}

func TestConfigValidation(t *testing.T) {
	mon := perfmon.New(4)
	home := func(int64) int { return 0 }
	cases := []Config{
		{Procs: 0, ClusterSize: 4, PageSize: 4096, Home: home, Mon: mon},
		{Procs: 65, ClusterSize: 4, PageSize: 4096, Home: home, Mon: mon},
		{Procs: 4, ClusterSize: 0, PageSize: 4096, Home: home, Mon: mon},
		{Procs: 4, ClusterSize: 4, PageSize: 0, Home: home, Mon: mon},
		{Procs: 4, ClusterSize: 4, PageSize: 4096, Home: nil, Mon: mon},
		{Procs: 4, ClusterSize: 4, PageSize: 4096, Home: home, Mon: nil},
		{Procs: 8, ClusterSize: 4, PageSize: 4096, Home: home, Mon: mon}, // monitor too small
	}
	for i, c := range cases {
		if _, err := New(c); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

// A Home callback that panics (the embedding runtime rejecting an
// address outside its space) must surface as a TaskFailure from Run,
// not leak the half-spawned task's live count and hang the drain.
func TestHomePanicFailsRun(t *testing.T) {
	for _, procs := range []int{1, 4} {
		rt, _ := testRuntime(t, procs, func(cfg *Config) {
			cfg.Home = func(addr int64) int {
				if addr >= 1<<20 {
					panic("home: address outside any arena")
				}
				return int(addr/4096) % procs
			}
		})
		errCh := make(chan error, 1)
		go func() {
			errCh <- rt.Run(func(c *Ctx) {
				c.WaitFor(func() {
					c.Spawn("ok", core.Affinity{Kind: core.AffObject, ObjectObj: 4096}, nil, func(*Ctx) {})
					c.Spawn("bad", core.Affinity{Kind: core.AffObject, ObjectObj: 1 << 21}, nil, func(*Ctx) {})
				})
			})
		}()
		select {
		case err := <-errCh:
			var tf *fault.TaskFailure
			if !errors.As(err, &tf) {
				t.Fatalf("procs=%d: Run returned %v, want a *fault.TaskFailure", procs, err)
			}
			if !strings.Contains(tf.Error(), "outside any arena") {
				t.Fatalf("procs=%d: failure %v does not carry the Home panic", procs, tf)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("procs=%d: Run hung after Home panic (leaked live count?)", procs)
		}
	}
}

// setHomeOf returns the recorded home of obj's set, or -1 when the set
// has never been placed.
func (rt *Runtime) setHomeOf(obj int64) int {
	sh := rt.shardOf(obj)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sv, ok := sh.home[obj]; ok {
		return sv
	}
	return -1
}
