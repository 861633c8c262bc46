package core

import (
	"errors"
	"testing"

	"github.com/coolrts/cool/internal/fault"
)

func TestRetryTargetPrefersOtherCluster(t *testing.T) {
	s, _ := newSched(t, 8, DefaultPolicy()) // clusters {0..3} {4..7}
	td := mkTask(s, "w", ClassPlain, 1, -1, 0)
	seen := map[int]bool{}
	for attempt := 1; attempt <= 4; attempt++ {
		tgt := s.retryTarget(td, 1, attempt)
		if tgt == 1 {
			t.Fatalf("attempt %d: retry re-placed on the failed processor", attempt)
		}
		if s.Cfg.SameCluster(tgt, 1) {
			t.Fatalf("attempt %d: target %d in the failed processor's cluster", attempt, tgt)
		}
		seen[tgt] = true
	}
	if len(seen) < 2 {
		t.Fatalf("successive attempts did not rotate targets: %v", seen)
	}
}

func TestRetryTargetSingleClusterFallsBack(t *testing.T) {
	s, _ := newSched(t, 4, DefaultPolicy()) // one cluster: no remote servers exist
	td := mkTask(s, "w", ClassPlain, 2, -1, 0)
	tgt := s.retryTarget(td, 2, 1)
	if tgt == 2 || !s.ServerAlive(tgt) {
		t.Fatalf("target = %d, want a different live processor", tgt)
	}
}

func TestRetryTargetKeepsSetOnItsHome(t *testing.T) {
	s, space := newSched(t, 8, DefaultPolicy())
	obj := space.AllocPages(64, 0)
	_, home, slot, _ := s.Place(Affinity{Kind: AffTask, TaskObj: obj}, 0)
	td := mkTask(s, "set", ClassTaskSet, home, slot, obj)
	if tgt := s.retryTarget(td, home, 1); tgt != home {
		t.Fatalf("set member retried to %d, want its home %d (sets must not split)", tgt, home)
	}
}

func TestRetryTargetObjectBoundStaysNearMemory(t *testing.T) {
	s, space := newSched(t, 8, DefaultPolicy())
	obj := space.AllocPages(64, 5)
	td := mkTask(s, "obj", ClassObjectBound, 5, s.topo.SlotOf(obj), obj)
	tgt := s.retryTarget(td, 5, 1)
	if tgt == 5 || !s.Cfg.SameCluster(tgt, 5) {
		t.Fatalf("target = %d, want a different server in the object's cluster", tgt)
	}
}

func TestEnqueueRetryFollowsRehomedSet(t *testing.T) {
	s, space := newSched(t, 8, DefaultPolicy())
	obj := space.AllocPages(64, 0)
	_, home, slot, _ := s.Place(Affinity{Kind: AffTask, TaskObj: obj}, 0)
	// Queue part of the set, pick a retry target, then re-home the set by
	// failing its server while one member is in backoff.
	queued := mkTask(s, "set", ClassTaskSet, home, slot, obj)
	s.Enqueue(queued, 0)
	backing := mkTask(s, "set", ClassTaskSet, home, slot, obj)
	tgt := s.retryTarget(backing, home, 1)
	s.FailServer(home, nil, 50)
	s.EnqueueRetry(backing, tgt, 100)
	if backing.Server != queued.Server {
		t.Fatalf("retried member on %d, rest of set on %d", backing.Server, queued.Server)
	}
	if err := checkInvariants(s); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchAbortWithoutHandlerFailsRun(t *testing.T) {
	s, _ := newSched(t, 4, DefaultPolicy())
	s.Eng.SetInjector(fault.NewInjector(new(fault.Plan).FailTask("w", 0), 4))
	s.Enqueue(mkTask(s, "w", ClassPlain, 0, -1, 0), 0)
	err := s.Eng.Run()
	var ta *fault.TaskAbort
	if !errors.As(err, &ta) {
		t.Fatalf("err = %v (%T), want *fault.TaskAbort", err, err)
	}
	if got := s.Mon.Total().GaveUp; got != 1 {
		t.Fatalf("GaveUp = %d, want 1", got)
	}
	if err := checkInvariants(s); err != nil {
		t.Fatal(err)
	}
}

func TestLaunchAbortRetriedViaHandler(t *testing.T) {
	s, _ := newSched(t, 8, DefaultPolicy())
	s.Eng.SetInjector(fault.NewInjector(new(fault.Plan).FailTask("w", 0).FailTask("w", 0), 8))
	s.Retry = fault.RetryPolicy{MaxAttempts: 4, Backoff: 500, MaxBackoff: 500}
	var tds []*TaskDesc
	for i := 0; i < 4; i++ {
		tds = append(tds, mkTask(s, "w", ClassPlain, 0, -1, 0))
	}
	for _, td := range tds {
		s.Enqueue(td, 0)
	}
	if err := s.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.Mon.Total().Retries; got != 2 {
		t.Fatalf("Retries = %d, want 2", got)
	}
	if got := tds[0].T.LaunchAborts(); got != 2 {
		t.Fatalf("first spawn aborted %d launches, want 2", got)
	}
	if err := checkInvariants(s); err != nil {
		t.Fatal(err)
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
