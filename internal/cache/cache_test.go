package cache

import (
	"testing"

	"github.com/coolrts/cool/internal/machine"
	"github.com/coolrts/cool/internal/memsim"
	"github.com/coolrts/cool/internal/perfmon"
)

type fixture struct {
	cfg   machine.Config
	space *memsim.Space
	mon   *perfmon.Monitor
	sys   *System
	now   int64
}

// access performs one reference with the fixture clock advanced well past
// any memory-module occupancy, so latency expectations are exact.
func (f *fixture) access(p int, addr, size int64, write bool) int64 {
	f.now += 100000
	return f.sys.Access(p, f.now, addr, size, write)
}

func newFixture(t testing.TB, procs int) *fixture {
	t.Helper()
	cfg := machine.DASH(procs)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	space := memsim.New(cfg)
	mon := perfmon.New(procs)
	return &fixture{cfg: cfg, space: space, mon: mon, sys: New(cfg, space, mon)}
}

func TestColdMissThenHit(t *testing.T) {
	f := newFixture(t, 8)
	addr := f.space.Alloc(64, 0) // homed in cluster 0, proc 0's cluster
	lat := f.cfg.Lat

	if got := f.access(0, addr, 8, false); got != lat.LocalMem {
		t.Fatalf("cold local miss cost %d, want %d", got, lat.LocalMem)
	}
	if got := f.access(0, addr, 8, false); got != lat.L1Hit {
		t.Fatalf("warm hit cost %d, want %d", got, lat.L1Hit)
	}
	c := f.mon.Per[0]
	if c.LocalMisses != 1 || c.L1Hits != 1 || c.Refs != 2 {
		t.Fatalf("counters: %+v", c)
	}
}

func TestRemoteMissCostsMore(t *testing.T) {
	f := newFixture(t, 8)
	addr := f.space.Alloc(64, 4) // homed at proc 4 (cluster 1)
	lat := f.cfg.Lat

	// Proc 0 is in cluster 0: remote.
	if got := f.access(0, addr, 8, false); got != lat.RemoteMem {
		t.Fatalf("remote miss cost %d, want %d", got, lat.RemoteMem)
	}
	// Proc 4 is in cluster 1: local.
	if got := f.access(4, addr, 8, false); got != lat.LocalMem {
		t.Fatalf("local miss cost %d, want %d", got, lat.LocalMem)
	}
	if f.mon.Per[0].RemoteMisses != 1 || f.mon.Per[4].LocalMisses != 1 {
		t.Fatalf("miss classification wrong: %+v %+v", f.mon.Per[0], f.mon.Per[4])
	}
}

func TestMigrationConvertsRemoteToLocal(t *testing.T) {
	// The mechanism behind Figure 11's Affinity+ObjectDistr bars: after
	// migration the same misses are serviced locally.
	f := newFixture(t, 8)
	addr := f.space.AllocPages(4096, 4)
	if got := f.access(0, addr, 8, false); got != f.cfg.Lat.RemoteMem {
		t.Fatalf("pre-migration cost %d", got)
	}
	f.space.Migrate(addr, 4096, 0)
	// Touch a different line on the migrated page (cold in cache).
	if got := f.access(0, addr+64, 8, false); got != f.cfg.Lat.LocalMem {
		t.Fatalf("post-migration cost %d, want local %d", got, f.cfg.Lat.LocalMem)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	f := newFixture(t, 8)
	addr := f.space.Alloc(64, 0)

	f.access(0, addr, 8, false)
	f.access(1, addr, 8, false)
	f.access(2, addr, 8, false)

	// Proc 0 writes: procs 1 and 2 must lose their copies.
	f.access(0, addr, 8, true)
	if inv := f.mon.Per[1].Invalidations + f.mon.Per[2].Invalidations; inv != 2 {
		t.Fatalf("invalidations = %d, want 2", inv)
	}

	// Proc 1 re-reads: must miss (serviced from proc 0's dirty copy).
	before := f.mon.Per[1].Misses()
	f.access(1, addr, 8, false)
	if f.mon.Per[1].Misses() != before+1 {
		t.Fatal("reader after invalidation should miss")
	}
	if f.mon.Per[1].DirtyMisses != 1 {
		t.Fatalf("expected a dirty miss, got %+v", f.mon.Per[1])
	}
}

func TestDirtyRemoteServicedCacheToCache(t *testing.T) {
	f := newFixture(t, 8)
	addr := f.space.Alloc(64, 0)
	lat := f.cfg.Lat

	f.access(0, addr, 8, true) // proc 0 (cluster 0) dirties the line
	// Proc 4 (cluster 1) reads: dirty-remote latency.
	if got := f.access(4, addr, 8, false); got != lat.RemoteDirty {
		t.Fatalf("dirty remote read cost %d, want %d", got, lat.RemoteDirty)
	}
	// Proc 1 (cluster 0) reads a line dirty in proc 0: cache-to-cache
	// within the cluster costs local latency.
	addr2 := f.space.Alloc(64, 0)
	f.access(0, addr2, 8, true)
	if got := f.access(1, addr2, 8, false); got != lat.LocalMem {
		t.Fatalf("dirty local read cost %d, want %d", got, lat.LocalMem)
	}
}

func TestUpgradeOnWriteToSharedLine(t *testing.T) {
	f := newFixture(t, 8)
	addr := f.space.Alloc(64, 0)
	f.access(0, addr, 8, false)
	f.access(1, addr, 8, false)

	got := f.access(0, addr, 8, true)
	want := f.cfg.Lat.L1Hit + f.cfg.Lat.Upgrade
	if got != want {
		t.Fatalf("upgrade cost %d, want %d", got, want)
	}
	if f.mon.Per[0].Upgrades != 1 {
		t.Fatalf("upgrades = %d", f.mon.Per[0].Upgrades)
	}
	// Subsequent write is a plain L1 hit on a modified line.
	if got := f.access(0, addr, 8, true); got != f.cfg.Lat.L1Hit {
		t.Fatalf("write to owned line cost %d", got)
	}
}

func TestMultiLineAccessChargesPerLine(t *testing.T) {
	f := newFixture(t, 8)
	addr := f.space.Alloc(256, 0) // 4 lines
	got := f.access(0, addr, 256, false)
	if want := 4 * f.cfg.Lat.LocalMem; got != want {
		t.Fatalf("4-line access cost %d, want %d", got, want)
	}
	if f.mon.Per[0].Refs != 4 {
		t.Fatalf("refs = %d, want 4", f.mon.Per[0].Refs)
	}
}

func TestCapacityEvictionAndL2Hit(t *testing.T) {
	f := newFixture(t, 8)
	// Working set bigger than L1 (64 KB) but within L2 (256 KB).
	n := 128 << 10
	addr := f.space.Alloc(int64(n), 0)
	f.access(0, addr, int64(n), false) // fill
	// Re-walk: early lines were evicted from L1 but remain in L2.
	f.access(0, addr, int64(n), false)
	c := f.mon.Per[0]
	if c.L2Hits == 0 {
		t.Fatalf("expected L2 hits after L1 capacity eviction: %+v", c)
	}
	if c.Misses() >= c.Refs {
		t.Fatalf("second pass should not miss everywhere: %+v", c)
	}
}

func TestEvictionWritesBackDirtyLines(t *testing.T) {
	f := newFixture(t, 8)
	// Dirty more than L2 capacity to force dirty evictions.
	n := int64(512 << 10)
	addr := f.space.Alloc(n, 0)
	f.access(0, addr, n, true)
	if f.mon.Per[0].Writebacks == 0 {
		t.Fatal("expected writebacks from dirty evictions")
	}
}

func TestDirectoryCleansUpOnEviction(t *testing.T) {
	f := newFixture(t, 8)
	n := int64(1 << 20) // blow through L2 several times
	addr := f.space.Alloc(n, 0)
	f.access(0, addr, n, false)
	maxResident := (f.cfg.L2.Size / f.cfg.LineSize) + (f.cfg.L1.Size / f.cfg.LineSize)
	live := 0
	forEachEntry(f.sys, func(d dirEntry) {
		if d != (dirEntry{}) {
			live++
		}
	})
	if live == 0 || live > maxResident {
		t.Fatalf("directory has %d live entries; lines resident at most %d", live, maxResident)
	}
}

func TestMemoryModuleContention(t *testing.T) {
	// Misses arriving together at one cluster's memory queue behind each
	// other; the same misses spread over the clusters do not.
	f := newFixture(t, 32)
	lat := f.cfg.Lat

	// 8 processors miss simultaneously to cluster 0's memory.
	concentrated := int64(0)
	addr := f.space.AllocPages(8*64, 0)
	for p := 0; p < 8; p++ {
		concentrated += f.sys.Access(4*p, 0, addr+int64(p)*64, 8, false)
	}

	// 8 processors miss simultaneously, each to its own cluster.
	spread := int64(0)
	addrs := make([]int64, 8)
	for c := 0; c < 8; c++ {
		addrs[c] = f.space.AllocPages(64, 4*c)
	}
	for p := 0; p < 8; p++ {
		spread += f.sys.Access(4*p, 1_000_000, addrs[p], 8, false)
	}

	if concentrated <= spread {
		t.Fatalf("no contention: concentrated %d <= spread %d", concentrated, spread)
	}
	// The concentrated case serializes on one module.
	if concentrated < spread+7*lat.MemOccupancy {
		t.Fatalf("queueing too weak: concentrated %d, spread %d", concentrated, spread)
	}
}

func TestCacheReuseBeatsCapacityMisses(t *testing.T) {
	// The premise of task affinity: back-to-back touches of the same
	// region hit in cache, interleaved touches of many regions do not.
	f := newFixture(t, 2)
	region := make([]int64, 8)
	regionSize := int64(48 << 10) // 48 KB each; two exceed L1
	for i := range region {
		region[i] = f.space.Alloc(regionSize, 0)
	}

	walk := func(p int, base int64) int64 {
		var cyc int64
		for off := int64(0); off < regionSize; off += 64 {
			cyc += f.access(p, base+off, 8, false)
		}
		return cyc
	}

	// Back to back: region 0 twice in a row on proc 0.
	walk(0, region[0])
	backToBack := walk(0, region[0])

	// Interleaved: touch regions 1..7 between two walks of region 1.
	walk(1, region[1])
	for _, r := range region[2:] {
		walk(1, r)
	}
	interleaved := walk(1, region[1])

	if backToBack*2 >= interleaved {
		t.Fatalf("back-to-back %d should be much cheaper than interleaved %d", backToBack, interleaved)
	}
}
