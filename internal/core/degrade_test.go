package core

import (
	"testing"

	"github.com/coolrts/cool/internal/sim"
)

// mkTask builds an enqueueable task descriptor backed by a real engine
// coroutine (never started by these tests).
func mkTask(s *Scheduler, name string, class Class, server, slot int, affObj int64) *TaskDesc {
	td := &TaskDesc{Link: Link[TaskDesc]{Class: class, Slot: slot, AffObj: affObj}, Server: server}
	tk := s.Eng.NewTask(name, 0, func(c *sim.Ctx) {})
	tk.Data = td
	td.T = tk
	td.Item = td
	return td
}

func TestFailServerDrainsAndRedistributes(t *testing.T) {
	s, space := newSched(t, 8, DefaultPolicy())
	const victim = 2
	obj := space.AllocPages(64, victim)
	var all []*TaskDesc
	for i := 0; i < 3; i++ {
		all = append(all, mkTask(s, "plain", ClassPlain, victim, -1, 0))
	}
	for i := 0; i < 2; i++ {
		all = append(all, mkTask(s, "proc", ClassProcessor, victim, -1, 0))
	}
	for i := 0; i < 3; i++ {
		all = append(all, mkTask(s, "obj", ClassObjectBound, victim, s.topo.SlotOf(obj), obj))
	}
	for _, td := range all {
		s.Enqueue(td, 0)
	}
	if s.QueuedTasks() != len(all) {
		t.Fatalf("queued %d, want %d", s.QueuedTasks(), len(all))
	}

	s.FailServer(victim, nil, 100)

	if s.ServerAlive(victim) || s.AliveServers() != 7 {
		t.Fatalf("alive=%d, victim alive=%v", s.AliveServers(), s.ServerAlive(victim))
	}
	if s.Srv[victim].queued != 0 {
		t.Fatalf("victim still holds %d queued tasks", s.Srv[victim].queued)
	}
	if s.QueuedTasks() != len(all) {
		t.Fatalf("tasks lost in redistribution: %d queued, want %d", s.QueuedTasks(), len(all))
	}
	for _, td := range all {
		if td.Server == victim || !s.ServerAlive(td.Server) {
			t.Fatalf("task %q landed on dead server %d", td.T.Name, td.Server)
		}
	}
	if got := s.Mon.Per[victim].Redistributed; got != int64(len(all)) {
		t.Fatalf("Redistributed = %d, want %d", got, len(all))
	}
	// Object-bound work stays close to its memory: same cluster as the
	// dead home when any same-cluster server survives.
	for _, td := range all {
		if td.Class == ClassObjectBound && !s.Cfg.SameCluster(td.Server, victim) {
			t.Fatalf("object-bound task moved to cluster %d, want victim's cluster", s.Cfg.ClusterOf(td.Server))
		}
	}
	// Calling again is a harmless no-op.
	s.FailServer(victim, nil, 200)
}

func TestFailServerRehomesTaskSetsAsUnit(t *testing.T) {
	s, space := newSched(t, 8, DefaultPolicy())
	obj := space.AllocPages(64, 0)
	// Establish the set's home via normal placement.
	_, home, slot, _ := s.Place(Affinity{Kind: AffTask, TaskObj: obj}, 0)
	var set []*TaskDesc
	for i := 0; i < 4; i++ {
		set = append(set, mkTask(s, "set", ClassTaskSet, home, slot, obj))
	}
	for _, td := range set {
		s.Enqueue(td, 0)
	}
	s.FailServer(home, nil, 50)
	tgt := set[0].Server
	if tgt == home || !s.ServerAlive(tgt) {
		t.Fatalf("set moved to %d (home was %d)", tgt, home)
	}
	for _, td := range set {
		if td.Server != tgt {
			t.Fatalf("set split across servers %d and %d", tgt, td.Server)
		}
	}
	// New members of the same set follow the new home.
	if _, sv, _, _ := s.Place(Affinity{Kind: AffTask, TaskObj: obj}, 0); sv != tgt {
		t.Fatalf("later set member placed at %d, want re-homed %d", sv, tgt)
	}
}

func TestVictimOrderSkipsDeadServers(t *testing.T) {
	s, _ := newSched(t, 8, DefaultPolicy())
	s.FailServer(1, nil, 0)
	s.FailServer(5, nil, 0)
	order := s.victimOrder(0)
	if len(order) != 5 {
		t.Fatalf("victim order %v, want the 5 surviving non-thief servers", order)
	}
	for _, v := range order {
		if v == 1 || v == 5 {
			t.Fatalf("dead server %d still probed: %v", v, order)
		}
	}
}

func TestPlacementAvoidsDeadServers(t *testing.T) {
	s, space := newSched(t, 8, DefaultPolicy())
	obj := space.AllocPages(64, 3)
	s.FailServer(3, nil, 0)
	if _, sv, _, _ := s.Place(Affinity{Kind: AffProcessor, Processor: 3}, 0); !s.ServerAlive(sv) {
		t.Fatalf("processor placement chose dead server %d", sv)
	}
	// Object placed in P3's memory: placement prefers a same-cluster
	// survivor to stay close to that memory.
	if _, sv, _, _ := s.Place(Affinity{Kind: AffObject, ObjectObj: obj}, 0); !s.ServerAlive(sv) || !s.Cfg.SameCluster(sv, 3) {
		t.Fatalf("object placement chose %d, want same-cluster survivor", sv)
	}
}

func TestQueueDepthsSnapshot(t *testing.T) {
	s, _ := newSched(t, 4, DefaultPolicy())
	s.Enqueue(mkTask(s, "a", ClassPlain, 1, -1, 0), 0)
	s.Enqueue(mkTask(s, "b", ClassPlain, 1, -1, 0), 0)
	s.FailServer(3, nil, 0)
	d := s.QueueDepths()
	if len(d) != 4 || d[1] != 2 || d[3] != -1 {
		t.Fatalf("depths = %v, want [0 2 0 -1]", d)
	}
}

// TestFailServerMidTaskLastAliveInCluster exercises the running != nil
// detach path when the victim is the last alive server of its cluster:
// the continuation and all queued work must cross clusters, and
// task-affinity sets must stay whole.
func TestFailServerMidTaskLastAliveInCluster(t *testing.T) {
	s, space := newSched(t, 8, DefaultPolicy()) // clusters {0..3} {4..7}
	for _, v := range []int{5, 6, 7} {
		s.FailServer(v, nil, 10)
	}
	// A task-affinity set homed on the victim, plus plain work.
	obj := space.AllocPages(64, 4)
	s.setHome[obj] = 4
	slot := s.topo.SlotOf(obj)
	var set []*TaskDesc
	for i := 0; i < 3; i++ {
		td := mkTask(s, "set", ClassTaskSet, 4, slot, obj)
		set = append(set, td)
		s.Enqueue(td, 20)
	}
	plain := mkTask(s, "plain", ClassPlain, 4, -1, 0)
	s.Enqueue(plain, 20)
	running := mkTask(s, "running", ClassPlain, 4, -1, 0)
	running.LastProc = 4

	s.FailServer(4, running.T, 100)

	if s.Cfg.ClusterOf(running.LastProc) == s.Cfg.ClusterOf(4) {
		t.Fatalf("continuation stayed in the dead cluster (P%d)", running.LastProc)
	}
	if !s.ServerAlive(running.LastProc) {
		t.Fatalf("continuation handed to dead server %d", running.LastProc)
	}
	home := set[0].Server
	if s.Cfg.ClusterOf(home) == s.Cfg.ClusterOf(4) || !s.ServerAlive(home) {
		t.Fatalf("set re-homed to %d, want a live server outside the dead cluster", home)
	}
	for _, td := range set {
		if td.Server != home {
			t.Fatalf("set split: members on %d and %d", home, td.Server)
		}
	}
	if s.setHome[obj] != home {
		t.Fatalf("setHome = %d, queued members on %d", s.setHome[obj], home)
	}
	if !s.ServerAlive(plain.Server) {
		t.Fatalf("plain task on dead server %d", plain.Server)
	}
	// 3 set members + 1 plain + 1 running continuation drained off P4.
	if got := s.Mon.Per[4].Redistributed; got != 5 {
		t.Fatalf("Redistributed = %d, want 5", got)
	}
	if err := checkInvariants(s); err != nil {
		t.Fatal(err)
	}
}
