package cool_test

import (
	"errors"
	"strings"
	"testing"

	cool "github.com/coolrts/cool"
)

func newRT(t *testing.T, procs int) *cool.Runtime {
	t.Helper()
	rt, err := cool.NewRuntime(cool.Config{Processors: procs})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestRunExecutesMain(t *testing.T) {
	rt := newRT(t, 4)
	ran := false
	if err := rt.Run(func(ctx *cool.Ctx) {
		ctx.Compute(100)
		ran = true
	}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("main did not run")
	}
	if rt.ElapsedCycles() < 100 {
		t.Fatalf("elapsed = %d", rt.ElapsedCycles())
	}
}

func TestRunTwiceFails(t *testing.T) {
	rt := newRT(t, 2)
	if err := rt.Run(func(ctx *cool.Ctx) {}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(func(ctx *cool.Ctx) {}); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := cool.NewRuntime(cool.Config{}); err == nil {
		t.Fatal("zero Processors should be rejected")
	}
	if _, err := cool.NewRuntime(cool.Config{Processors: 100}); err == nil {
		t.Fatal("100 processors should be rejected (max 64)")
	}
}

func TestWaitForDirectChildren(t *testing.T) {
	rt := newRT(t, 4)
	done := make([]bool, 10)
	err := rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for i := 0; i < 10; i++ {
				i := i
				ctx.Spawn("child", func(c *cool.Ctx) {
					c.Compute(50)
					done[i] = true
				})
			}
		})
		for i, d := range done {
			if !d {
				t.Errorf("waitfor returned before child %d completed", i)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitForTransitive(t *testing.T) {
	// A task spawned by a descendant, outside any inner waitfor, still
	// belongs to the outer waitfor's dynamic extent.
	rt := newRT(t, 4)
	grandchildDone := false
	err := rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			ctx.Spawn("child", func(c *cool.Ctx) {
				c.Compute(10)
				c.Spawn("grandchild", func(g *cool.Ctx) {
					g.Compute(5000)
					grandchildDone = true
				})
			})
		})
		if !grandchildDone {
			t.Error("waitfor returned before transitively created task completed")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNestedWaitFor(t *testing.T) {
	rt := newRT(t, 4)
	var order []string
	err := rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			ctx.Spawn("outer", func(c *cool.Ctx) {
				c.WaitFor(func() {
					c.Spawn("inner", func(ci *cool.Ctx) {
						ci.Compute(100)
						order = append(order, "inner")
					})
				})
				order = append(order, "outer-after-inner")
			})
		})
		order = append(order, "main")
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "inner,outer-after-inner,main"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

func TestEmptyWaitForDoesNotBlock(t *testing.T) {
	rt := newRT(t, 2)
	if err := rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {})
	}); err != nil {
		t.Fatal(err)
	}
}

func TestObjectAffinityRunsAtHome(t *testing.T) {
	rt := newRT(t, 32)
	objs := make([]*cool.F64, 16)
	for i := range objs {
		objs[i] = rt.NewF64Pages(1024, i*2)
	}
	homes := make([]int, len(objs))
	execs := make([]int, len(objs))
	err := rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for i, o := range objs {
				i, o := i, o
				homes[i] = ctx.Home(o.Base)
				ctx.Spawn("work", func(c *cool.Ctx) {
					execs[i] = c.ProcID()
					for j := 0; j < o.Len(); j += 8 {
						c.ReadF64(o, j)
						c.Compute(4)
					}
				}, cool.ObjectAffinity(o.Base))
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	atHome := 0
	for i := range objs {
		if execs[i] == homes[i] {
			atHome++
		}
	}
	// With ample processors nearly every task should run at home.
	if atHome < len(objs)*3/4 {
		t.Fatalf("only %d/%d object-affinity tasks ran at home", atHome, len(objs))
	}
	rep := rt.Report()
	if rep.Total.HomeFraction() < 0.5 {
		t.Fatalf("home fraction = %.2f", rep.Total.HomeFraction())
	}
}

func TestProcessorAffinityHonored(t *testing.T) {
	rt := newRT(t, 8)
	execs := make([]int, 8)
	err := rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for i := 0; i < 8; i++ {
				i := i
				ctx.Spawn("pinned", func(c *cool.Ctx) {
					execs[i] = c.ProcID()
					c.Compute(10000)
				}, cool.OnProcessor(i))
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// All processors busy with equal work: no steals should displace them.
	for i, p := range execs {
		if p != i {
			t.Errorf("task pinned to %d ran on %d", i, p)
		}
	}
}

func TestTaskAffinitySetsRunBackToBack(t *testing.T) {
	// Tasks of the same set must execute consecutively on one processor.
	// Stealing is disabled so load balancing cannot legitimately move a
	// set mid-drain (set migration is covered by TestWholeSetStealing).
	rt, err := cool.NewRuntime(cool.Config{Processors: 4, Sched: cool.SchedPolicy{NoStealing: true}})
	if err != nil {
		t.Fatal(err)
	}
	setA := rt.NewF64Pages(8, 0)
	setB := rt.NewF64Pages(8, 0)
	type ev struct {
		set  string
		proc int
	}
	var log []ev
	err = rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for i := 0; i < 6; i++ {
				which, obj := "A", setA
				if i%2 == 1 {
					which, obj = "B", setB
				}
				ctx.Spawn("t"+which, func(c *cool.Ctx) {
					log = append(log, ev{which, c.ProcID()})
					c.Compute(3000)
				}, cool.TaskAffinity(obj.Base))
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each set's tasks ran on a single processor.
	procOf := map[string]int{}
	for _, e := range log {
		if p, ok := procOf[e.set]; ok && p != e.proc {
			t.Fatalf("set %s ran on both proc %d and %d", e.set, p, e.proc)
		}
		procOf[e.set] = e.proc
	}
	// Two sets should use two different processors (load balance).
	if procOf["A"] == procOf["B"] {
		t.Fatalf("both sets on proc %d; sets should spread", procOf["A"])
	}
}

func TestWholeSetStealing(t *testing.T) {
	// When an idle processor steals a task-affinity set it takes the
	// whole set, so the remaining tasks still run back to back on the
	// thief.
	rt := newRT(t, 2)
	set := rt.NewF64Pages(8, 0)
	var procs []int
	err := rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			// Occupy processor 0 (where main runs) with the set's
			// server, then let processor 1 steal.
			for i := 0; i < 6; i++ {
				ctx.Spawn("set", func(c *cool.Ctx) {
					procs = append(procs, c.ProcID())
					c.Compute(4000)
				}, cool.TaskAffinity(set.Base))
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := rt.Report()
	if rep.Total.SetSteals == 0 {
		t.Skip("no set steal occurred in this schedule")
	}
	// After the (single) migration point, all tasks run on the thief:
	// the proc sequence has at most one change point.
	changes := 0
	for i := 1; i < len(procs); i++ {
		if procs[i] != procs[i-1] {
			changes++
		}
	}
	if changes > int(rep.Total.SetSteals) {
		t.Fatalf("set split more often (%d) than sets were stolen (%d): %v", changes, rep.Total.SetSteals, procs)
	}
}

func TestBaseModeIgnoresHints(t *testing.T) {
	rt, err := cool.NewRuntime(cool.Config{Processors: 8, Sched: cool.SchedPolicy{IgnoreHints: true}})
	if err != nil {
		t.Fatal(err)
	}
	obj := rt.NewF64Pages(8, 3)
	procs := map[int]bool{}
	err = rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for i := 0; i < 16; i++ {
				ctx.Spawn("t", func(c *cool.Ctx) {
					procs[c.ProcID()] = true
					c.Compute(5000)
				}, cool.ObjectAffinity(obj.Base))
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) < 4 {
		t.Fatalf("base mode used only %d processors; expected round-robin spread", len(procs))
	}
}

func TestIdleProcessorsStealWork(t *testing.T) {
	// All tasks placed on processor 0; others must steal.
	rt := newRT(t, 4)
	procs := map[int]bool{}
	err := rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for i := 0; i < 32; i++ {
				ctx.Spawn("t", func(c *cool.Ctx) {
					procs[c.ProcID()] = true
					c.Compute(20000)
				}, cool.OnProcessor(0))
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) < 3 {
		t.Fatalf("stealing failed: only %d processors participated", len(procs))
	}
	rep := rt.Report()
	if rep.Total.StealsLocal+rep.Total.StealsRemote == 0 {
		t.Fatal("no successful steals recorded")
	}
}

func TestClusterStealingOnlyStaysInCluster(t *testing.T) {
	rt, err := cool.NewRuntime(cool.Config{Processors: 8, Sched: cool.SchedPolicy{ClusterStealingOnly: true}})
	if err != nil {
		t.Fatal(err)
	}
	execs := map[int]bool{}
	err = rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for i := 0; i < 32; i++ {
				ctx.Spawn("t", func(c *cool.Ctx) {
					execs[c.ProcID()] = true
					c.Compute(20000)
				}, cool.OnProcessor(0))
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range execs {
		if p >= 4 {
			t.Fatalf("task leaked to processor %d outside cluster 0", p)
		}
	}
	if rt.Report().Total.StealsRemote != 0 {
		t.Fatal("remote steals recorded despite cluster-only policy")
	}
}

func TestMutexFunctionsSerialize(t *testing.T) {
	rt := newRT(t, 8)
	panel := rt.NewF64Pages(64, 0)
	mon := rt.NewMonitor(panel.Base)
	counter := 0
	err := rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for i := 0; i < 20; i++ {
				ctx.Spawn("update", func(c *cool.Ctx) {
					// Unsynchronized read-modify-write over simulated
					// time: only safe if mutex tasks serialize.
					v := counter
					c.Compute(500)
					counter = v + 1
				}, cool.WithMutex(mon))
			}
		})
		if counter != 20 {
			t.Errorf("counter = %d, want 20 (mutex tasks interleaved)", counter)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Report().Total.LockBlocks == 0 {
		t.Fatal("expected contention on the monitor")
	}
}

func TestCondSignalWakesWaiter(t *testing.T) {
	rt := newRT(t, 4)
	mon := rt.NewMonitor(0)
	cv := &cool.Cond{}
	ready := false
	consumed := false
	err := rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			ctx.Spawn("consumer", func(c *cool.Ctx) {
				c.Lock(mon)
				for !ready {
					c.Wait(cv, mon)
				}
				consumed = true
				c.Unlock(mon)
			})
			ctx.Spawn("producer", func(c *cool.Ctx) {
				c.Compute(5000)
				c.Lock(mon)
				ready = true
				c.Signal(cv)
				c.Unlock(mon)
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !consumed {
		t.Fatal("consumer never woke")
	}
}

func TestBroadcastWakesAll(t *testing.T) {
	rt := newRT(t, 8)
	mon := rt.NewMonitor(0)
	cv := &cool.Cond{}
	released := false
	woke := 0
	err := rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for i := 0; i < 5; i++ {
				ctx.Spawn("waiter", func(c *cool.Ctx) {
					c.Lock(mon)
					for !released {
						c.Wait(cv, mon)
					}
					woke++
					c.Unlock(mon)
				})
			}
			ctx.Spawn("releaser", func(c *cool.Ctx) {
				c.Compute(20000)
				c.Lock(mon)
				released = true
				c.Broadcast(cv)
				c.Unlock(mon)
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if woke != 5 {
		t.Fatalf("woke = %d, want 5", woke)
	}
}

func TestDeadlockReported(t *testing.T) {
	// Build a three-task deadlock exercising every kind of wait edge:
	// "holder" owns mon and parks on a condition variable nobody signals,
	// "contender" parks on mon itself, and main parks on the waitfor
	// scope covering both. One processor serializes the spawn order so
	// the wait-for graph is deterministic.
	rt := newRT(t, 1)
	mon := rt.NewMonitor(0xbeef0)
	mon2 := rt.NewMonitor(0xbeef8)
	cv := &cool.Cond{}
	err := rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			ctx.Spawn("holder", func(c *cool.Ctx) {
				c.Lock(mon)
				c.Lock(mon2)
				c.Wait(cv, mon2) // nobody signals; mon stays held
			})
			ctx.Spawn("contender", func(c *cool.Ctx) {
				c.Lock(mon) // blocks on holder forever
			})
		})
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
	var de *cool.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %T, want *cool.DeadlockError", err)
	}
	if len(de.Waits) != 3 {
		t.Fatalf("wait-for graph has %d edges, want 3:\n%v", len(de.Waits), err)
	}
	edges := map[string]cool.WaitEdge{}
	for _, w := range de.Waits {
		edges[w.Task] = w
	}
	if w := edges["contender"]; w.On != "monitor" || w.Object != 0xbeef0 || w.Holder != "holder" {
		t.Fatalf("contender edge = %+v, want monitor@0xbeef0 held by holder", w)
	}
	if w := edges["holder"]; w.On != "condition" {
		t.Fatalf("holder edge = %+v, want condition wait", w)
	}
	if w := edges["main"]; w.On != "scope" || w.Pending != 2 {
		t.Fatalf("main edge = %+v, want scope with 2 outstanding", w)
	}
	for _, want := range []string{`task "contender" waits on monitor@0xbeef0 held by "holder"`, `task "holder" waits on condition`, `task "main" waits on scope (2 task(s) outstanding)`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("message %q\nmissing %q", err, want)
		}
	}
}

func TestMigrationMovesHome(t *testing.T) {
	rt := newRT(t, 32)
	arr := rt.NewF64Pages(4096, 0)
	var before, after int
	err := rt.Run(func(ctx *cool.Ctx) {
		before = ctx.Home(arr.Base)
		ctx.Migrate(arr.Base, int64(arr.Len())*8, 20)
		after = ctx.Home(arr.Base)
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := rt.MachineConfig()
	if cfg.ClusterOf(before) != 0 {
		t.Fatalf("before: home %d not in cluster 0", before)
	}
	if cfg.ClusterOf(after) != cfg.ClusterOf(20) {
		t.Fatalf("after: home %d not in cluster of proc 20", after)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int64, cool.Counters) {
		rt := newRT(t, 8)
		data := rt.NewF64Pages(1<<14, 0)
		err := rt.Run(func(ctx *cool.Ctx) {
			ctx.WaitFor(func() {
				for c := 0; c < 16; c++ {
					part := data.Slice(c*1024, (c+1)*1024)
					ctx.Spawn("sum", func(cx *cool.Ctx) {
						for i := 0; i < part.Len(); i++ {
							cx.ReadF64(part, i)
							cx.Compute(2)
						}
					}, cool.ObjectAffinity(part.Base))
				}
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return rt.ElapsedCycles(), rt.Report().Total
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 || t1 != t2 {
		t.Fatalf("non-deterministic: %d vs %d cycles", c1, c2)
	}
}

func TestSpeedupWithMoreProcessors(t *testing.T) {
	// The most basic sanity check of the whole stack: an embarrassingly
	// parallel program must speed up with processors.
	elapsed := func(procs int) int64 {
		rt := newRT(t, procs)
		err := rt.Run(func(ctx *cool.Ctx) {
			ctx.WaitFor(func() {
				for i := 0; i < 64; i++ {
					i := i
					ctx.Spawn("work", func(c *cool.Ctx) {
						arr := c.NewF64(512)
						for j := 0; j < 512; j++ {
							c.WriteF64(arr, j, float64(i+j))
							c.Compute(20)
						}
					})
				}
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return rt.ElapsedCycles()
	}
	t1 := elapsed(1)
	t8 := elapsed(8)
	speedup := float64(t1) / float64(t8)
	if speedup < 4 {
		t.Fatalf("speedup on 8 procs = %.2f, want >= 4", speedup)
	}
}

func TestPrefetchWarmsCache(t *testing.T) {
	rt := newRT(t, 4)
	arr := rt.NewF64Pages(1024, 2)
	err := rt.Run(func(ctx *cool.Ctx) {
		before := ctx.Now()
		ctx.Prefetch(arr.Base, int64(arr.Len())*8)
		issue := ctx.Now() - before

		// The prefetch must be cheap (issue cost only, not miss latency).
		if perLine := issue / int64(arr.Len()/8); perLine >= 10 {
			t.Errorf("prefetch issue cost %d cycles/line; should be far below miss latency", perLine)
		}
		// A subsequent read must hit in cache.
		before = ctx.Now()
		ctx.ReadF64Range(arr, 0, 512)
		readCost := ctx.Now() - before
		if perLine := readCost / 64; perLine > 2 {
			t.Errorf("post-prefetch read cost %d cycles/line; expected L1 hits", perLine)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := rt.Report().Total
	if tot.Prefetches != int64(arr.Len()/8) || tot.PrefetchFills == 0 {
		t.Fatalf("prefetch counters: %+v", tot)
	}
}

func TestPrefetchDoesNotStealDirtyLines(t *testing.T) {
	rt := newRT(t, 4)
	arr := rt.NewF64Pages(64, 0)
	err := rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			ctx.Spawn("writer", func(c *cool.Ctx) {
				c.WriteF64(arr, 0, 42)
			}, cool.OnProcessor(1))
		})
		ctx.WaitFor(func() {
			ctx.Spawn("prefetcher", func(c *cool.Ctx) {
				c.Prefetch(arr.Base, 64)
				// The dirty line was skipped: reading it must still be
				// a (dirty) miss, preserving coherence accounting.
				before := c.Now()
				c.ReadF64(arr, 0)
				if c.Now()-before < 30 {
					t.Error("read of dirty line serviced from a bogus prefetched copy")
				}
			}, cool.OnProcessor(2))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMultiObjectAffinityPlacesAtBiggestHome(t *testing.T) {
	type operand struct{ elems, proc int }
	for _, tc := range []struct {
		name string
		objs []operand
		want int
	}{
		{"largest object", []operand{{512, 17}, {4096, 9}, {512, 25}}, 9},
		{"bytes sum per home", []operand{{512, 17}, {768, 25}, {512, 17}}, 17},
		{"tie goes to the first operand", []operand{{512, 25}, {512, 17}}, 25},
	} {
		rt := newRT(t, 32)
		var opts []cool.SpawnOpt
		for _, ob := range tc.objs {
			a := rt.NewF64Pages(ob.elems, ob.proc)
			opts = append(opts, cool.ObjectAffinitySized(a.Base, int64(ob.elems)*8))
		}
		var ranOn int
		err := rt.Run(func(ctx *cool.Ctx) {
			ctx.WaitFor(func() {
				ctx.Spawn("multi", func(c *cool.Ctx) {
					ranOn = c.ProcID()
					c.Compute(1000)
				}, opts...)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if ranOn != tc.want {
			t.Fatalf("%s: task ran on %d, want %d", tc.name, ranOn, tc.want)
		}
		// The other objects were prefetched.
		if rt.Report().Total.Prefetches == 0 {
			t.Fatalf("%s: secondary objects not prefetched", tc.name)
		}
	}
}

func TestTracingRecordsLifecycle(t *testing.T) {
	rt, err := cool.NewRuntime(cool.Config{Processors: 4, TraceCapacity: 1000})
	if err != nil {
		t.Fatal(err)
	}
	mon := rt.NewMonitor(0)
	err = rt.Run(func(ctx *cool.Ctx) {
		ctx.WaitFor(func() {
			for i := 0; i < 6; i++ {
				ctx.Spawn("worker", func(c *cool.Ctx) {
					c.Compute(5000)
				}, cool.WithMutex(mon), cool.OnProcessor(0))
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range rt.TraceEvents() {
		kinds[e.Kind]++
	}
	if kinds["enqueue"] < 6 || kinds["run"] < 6 || kinds["done"] != 7 {
		t.Fatalf("lifecycle kinds incomplete: %v", kinds)
	}
	if kinds["block"] == 0 {
		t.Fatalf("mutex contention should record blocks: %v", kinds)
	}
	// Timeline renders one row per processor.
	tl := rt.TraceTimeline(20)
	if strings.Count(tl, "\n") != 4 {
		t.Fatalf("timeline rows:\n%s", tl)
	}
	if !strings.Contains(rt.TraceDump(), "worker") {
		t.Fatal("dump missing task name")
	}
}

func TestTracingDisabledByDefault(t *testing.T) {
	rt := newRT(t, 2)
	if err := rt.Run(func(ctx *cool.Ctx) { ctx.Compute(1) }); err != nil {
		t.Fatal(err)
	}
	if len(rt.TraceEvents()) != 0 {
		t.Fatal("events recorded without TraceCapacity")
	}
}

func TestReportString(t *testing.T) {
	rt := newRT(t, 2)
	if err := rt.Run(func(ctx *cool.Ctx) { ctx.Compute(10) }); err != nil {
		t.Fatal(err)
	}
	s := rt.Report().String()
	if !strings.Contains(s, "cycles=") || !strings.Contains(s, "tasks=") {
		t.Fatalf("report string malformed: %q", s)
	}
}
