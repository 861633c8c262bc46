package core

import (
	"reflect"
	"testing"
)

// TestPlaceEveryKindUnderFailure runs Table 1 (Topo.Place) and the
// nearest-survivor rule (Topo.NearestAlive) — the pair both engines
// compose at placement — over every affinity kind and three machines:
// healthy, the preferred server dead, and its whole cluster dead.
func TestPlaceEveryKindUnderFailure(t *testing.T) {
	topo := Topo{Procs: 8, ClusterSize: 4, PageSize: 4096, QueueArraySize: 64} // clusters {0..3} {4..7}
	const src, dst = int64(0x9000), int64(0x15040)
	home := func(addr int64) int {
		if addr == src {
			return 1
		}
		return 6
	}
	srcSlot, dstSlot := topo.SlotOf(src), topo.SlotOf(dst)
	const spawner = 2
	kinds := []struct {
		name   string
		aff    Affinity
		class  Class
		server int // -1: the engine's set-home table decides
		slot   int
		obj    int64
	}{
		{"none", Affinity{Kind: AffNone}, ClassPlain, spawner, -1, 0},
		{"default", Affinity{Kind: AffDefault, TaskObj: src}, ClassObjectBound, 1, srcSlot, src},
		{"simple", Affinity{Kind: AffSimple, TaskObj: src}, ClassObjectBound, 1, srcSlot, src},
		{"task", Affinity{Kind: AffTask, TaskObj: src}, ClassTaskSet, -1, srcSlot, src},
		{"object", Affinity{Kind: AffObject, ObjectObj: dst}, ClassObjectBound, 6, dstSlot, dst},
		{"task+object", Affinity{Kind: AffTaskObject, TaskObj: src, ObjectObj: dst}, ClassObjectBound, 6, srcSlot, src},
		{"processor", Affinity{Kind: AffProcessor, Processor: 13}, ClassProcessor, 5, -1, 0},
		{"processor<0", Affinity{Kind: AffProcessor, Processor: -3}, ClassProcessor, 5, -1, 0},
	}
	clusterOf := func(p int) ProcSet { return 0xf << uint(p/4*4) }
	for _, k := range kinds {
		class, server, slot, obj := topo.Place(k.aff, spawner, home)
		if class != k.class || server != k.server || slot != k.slot || obj != k.obj {
			t.Errorf("%s: Place = (%v, %d, %d, %#x), want (%v, %d, %d, %#x)",
				k.name, class, server, slot, obj, k.class, k.server, k.slot, k.obj)
		}
		if server < 0 {
			continue // nothing to fail over: the set has no home yet
		}
		next := server/4*4 + (server+1)%4 // next processor round the same cluster
		for _, f := range []struct {
			name string
			dead ProcSet
			want int
		}{
			{"nobody dead", 0, server},
			{"home dead", 1 << uint(server), next},
			{"home's cluster dead", clusterOf(server), (server/4*4 + 4) % 8},
		} {
			if got := topo.NearestAlive(server, f.dead); got != f.want {
				t.Errorf("%s, %s: NearestAlive(%d) = %d, want %d", k.name, f.name, server, got, f.want)
			}
		}
	}
	if got := topo.NearestAlive(3, 0xff); got != 3 {
		t.Errorf("no survivor: NearestAlive(3) = %d, want 3 unchanged", got)
	}
}

// TestRingsOmitDeadAndOrderClusterFirst checks the victim-ring builder:
// probe order is (thief+d)%P, a dead victim appears in no ring, and the
// cluster-first order walks every same-cluster victim before any remote
// one.
func TestRingsOmitDeadAndOrderClusterFirst(t *testing.T) {
	topo := Topo{Procs: 8, ClusterSize: 4, PageSize: 4096, QueueArraySize: 64}
	var r Rings
	r.Build(topo, 1, 1<<3|1<<6)
	want := Rings{Cluster: []int{2, 0}, Remote: []int{4, 5, 7}, Flat: []int{2, 4, 5, 7, 0}}
	if !reflect.DeepEqual(r, want) {
		t.Fatalf("rings = %+v, want %+v", r, want)
	}
	first, second := r.Order(true, false)
	if !reflect.DeepEqual(first, want.Cluster) || !reflect.DeepEqual(second, want.Remote) {
		t.Fatalf("cluster-first order = %v then %v", first, second)
	}
	if first, second = r.Order(true, true); !reflect.DeepEqual(first, want.Cluster) || second != nil {
		t.Fatalf("cluster-only order = %v then %v, want the cluster ring alone", first, second)
	}
	if first, second = r.Order(false, false); !reflect.DeepEqual(first, want.Flat) || second != nil {
		t.Fatalf("flat order = %v then %v", first, second)
	}
	// A rebuild reuses the backing arrays and drops what came back alive.
	r.Build(topo, 1, 0)
	if len(r.Flat) != 7 || len(r.Cluster) != 3 || len(r.Remote) != 4 {
		t.Fatalf("healthy rebuild = %+v", r)
	}
}

// TestMayStealHead pins the reluctant-steal gate.
func TestMayStealHead(t *testing.T) {
	def := DefaultPolicy()
	noObj, noSets := def, def
	noObj.StealObjectBound = false
	noSets.StealWholeSets = false
	for _, c := range []struct {
		pol     Policy
		class   Class
		backlog int
		want    bool
	}{
		{def, ClassPlain, 1, true},
		{def, ClassProcessor, 1, false},
		{def, ClassProcessor, 2, true},
		{def, ClassObjectBound, 1, false},
		{def, ClassObjectBound, 2, true},
		{noObj, ClassObjectBound, 9, false},
		{def, ClassTaskSet, 9, false},
		{noSets, ClassTaskSet, 1, true},
	} {
		if got := c.pol.MayStealHead(c.class, c.backlog); got != c.want {
			t.Errorf("MayStealHead(%v, backlog %d) = %v, want %v", c.class, c.backlog, got, c.want)
		}
	}
}
