package core

import (
	"testing"

	"github.com/coolrts/cool/internal/machine"
	"github.com/coolrts/cool/internal/memsim"
	"github.com/coolrts/cool/internal/perfmon"
	"github.com/coolrts/cool/internal/sim"
)

func newSched(t *testing.T, procs int, pol Policy) (*Scheduler, *memsim.Space) {
	t.Helper()
	cfg := machine.DASH(procs)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	eng := sim.New(procs, cfg.Quantum)
	space := memsim.New(cfg)
	mon := perfmon.New(procs)
	return NewScheduler(cfg, pol, eng, space, mon), space
}

func TestHomeServerIsPlacementProc(t *testing.T) {
	// The home server of an object is exactly the processor named at
	// allocation (or migration) time — the paper's home() construct.
	s, space := newSched(t, 32, DefaultPolicy())
	for p := 0; p < 32; p++ {
		addr := space.AllocPages(64, p)
		if sv := s.home(addr); sv != p {
			t.Fatalf("object placed at %d homed to server %d", p, sv)
		}
	}
	addr := space.AllocPages(4096, 3)
	space.Migrate(addr, 4096, 17)
	if sv := s.home(addr); sv != 17 {
		t.Fatalf("migrated object homed to %d, want 17", sv)
	}
}

func TestHomeServerSamePageSharesHome(t *testing.T) {
	// Objects sharing a page share a home (page is the placement unit).
	s, space := newSched(t, 8, DefaultPolicy())
	base := space.Alloc(64, 2)
	other := space.Alloc(64, 3) // same cluster arena, may share the page
	if base/int64(s.Cfg.PageSize) == other/int64(s.Cfg.PageSize) &&
		s.home(base) != s.home(other) {
		t.Fatal("same-page objects homed to different servers")
	}
}

func TestPlaceTable1Semantics(t *testing.T) {
	s, space := newSched(t, 32, DefaultPolicy())
	src := space.AllocPages(4096, 9)  // placed at proc 9
	dst := space.AllocPages(4096, 21) // placed at proc 21

	// Simple affinity: object-bound at src's home.
	cl, sv, slot, obj := s.Place(Affinity{Kind: AffSimple, TaskObj: src}, 0)
	if cl != ClassObjectBound || sv != 9 || slot < 0 || obj != src {
		t.Fatalf("simple: class=%v server=%d slot=%d obj=%d", cl, sv, slot, obj)
	}

	// Object affinity: collocate with dst.
	cl, sv, _, _ = s.Place(Affinity{Kind: AffObject, ObjectObj: dst}, 0)
	if cl != ClassObjectBound || sv != 21 {
		t.Fatalf("object: class=%v server=%d", cl, sv)
	}

	// Task+Object: server follows the OBJECT operand, slot follows TASK.
	cl, sv, slot, obj = s.Place(Affinity{Kind: AffTaskObject, TaskObj: src, ObjectObj: dst}, 0)
	if cl != ClassObjectBound || sv != 21 || slot != s.topo.SlotOf(src) || obj != src {
		t.Fatalf("task+object: class=%v server=%d slot=%d obj=%d", cl, sv, slot, obj)
	}

	// Processor affinity: direct placement mod P.
	cl, sv, _, _ = s.Place(Affinity{Kind: AffProcessor, Processor: 40}, 0)
	if cl != ClassProcessor || sv != 8 {
		t.Fatalf("processor: class=%v server=%d", cl, sv)
	}

	// Task affinity: same object keeps landing on the same server.
	_, sv1, _, _ := s.Place(Affinity{Kind: AffTask, TaskObj: src}, 0)
	_, sv2, _, _ := s.Place(Affinity{Kind: AffTask, TaskObj: src}, 3)
	if sv1 != sv2 {
		t.Fatalf("task-affinity set split across servers %d and %d", sv1, sv2)
	}

	// None: spawner-local.
	cl, sv, slot, _ = s.Place(Affinity{Kind: AffNone}, 7)
	if cl != ClassPlain || sv != 7 || slot != -1 {
		t.Fatalf("none: class=%v server=%d slot=%d", cl, sv, slot)
	}
}

func TestPlaceIgnoreHintsRoundRobin(t *testing.T) {
	pol := DefaultPolicy()
	pol.IgnoreHints = true
	s, space := newSched(t, 4, pol)
	obj := space.Alloc(64, 0)
	var servers []int
	for i := 0; i < 8; i++ {
		cl, sv, slot, _ := s.Place(Affinity{Kind: AffObject, ObjectObj: obj}, 0)
		if cl != ClassPlain || slot != -1 {
			t.Fatalf("base mode produced class=%v slot=%d", cl, slot)
		}
		servers = append(servers, sv)
	}
	for i, sv := range servers {
		if sv != i%4 {
			t.Fatalf("round robin broken: %v", servers)
		}
	}
}

func TestDistinctTaskSetsSpread(t *testing.T) {
	s, space := newSched(t, 8, DefaultPolicy())
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		obj := space.Alloc(4096, 0)
		_, sv, _, _ := s.Place(Affinity{Kind: AffTask, TaskObj: obj}, 0)
		seen[sv] = true
	}
	if len(seen) != 8 {
		t.Fatalf("8 distinct task sets used only %d servers", len(seen))
	}
}

func TestVictimOrderClusterFirst(t *testing.T) {
	s, _ := newSched(t, 8, DefaultPolicy()) // clusters {0..3},{4..7}
	order := s.victimOrder(1)
	if len(order) != 7 {
		t.Fatalf("order = %v", order)
	}
	for i, v := range order[:3] {
		if !s.Cfg.SameCluster(1, v) {
			t.Fatalf("victim %d at position %d not in thief's cluster (%v)", v, i, order)
		}
	}
	for _, v := range order[3:] {
		if s.Cfg.SameCluster(1, v) {
			t.Fatalf("cluster victim after remote victims: %v", order)
		}
	}
}

func TestVictimOrderClusterOnly(t *testing.T) {
	pol := DefaultPolicy()
	pol.ClusterStealingOnly = true
	s, _ := newSched(t, 8, pol)
	order := s.victimOrder(5)
	if len(order) != 3 {
		t.Fatalf("cluster-only order = %v, want 3 same-cluster victims", order)
	}
	for _, v := range order {
		if !s.Cfg.SameCluster(5, v) {
			t.Fatalf("remote victim %d in cluster-only mode", v)
		}
	}
}

func TestVictimOrderFlat(t *testing.T) {
	pol := DefaultPolicy()
	pol.ClusterStealFirst = false
	s, _ := newSched(t, 8, pol)
	order := s.victimOrder(2)
	want := []int{3, 4, 5, 6, 7, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("flat order = %v, want %v", order, want)
		}
	}
}
