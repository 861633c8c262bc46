package core

import (
	"strings"
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

func TestSnapshotMarksDeadServers(t *testing.T) {
	s, _ := newSched(t, 4, DefaultPolicy())
	s.Enqueue(mkTask(s, "w", ClassPlain, 1, -1, 0), 0)
	s.FailServer(2, nil, 0)
	snap := s.Snapshot()
	for _, want := range []string{"P1:1", "P2:0 dead", "total 1 queued"} {
		if !strings.Contains(snap, want) {
			t.Fatalf("snapshot %q missing %q", snap, want)
		}
	}
}
