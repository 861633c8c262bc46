package cache

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"github.com/coolrts/cool/internal/machine"
	"github.com/coolrts/cool/internal/perfmon"
)

// goldenStreamHash is the FNV-64a digest of goldenStream's latencies and
// of the counters the model keeps, by name, per processor. The model it
// pins is the one recorded on the map-and-struct layout this package had
// before its tag arrays and paged directory; any change to the protocol,
// its order of operations or the LRU choice moves it. A counter added to
// or removed from perfmon.Counters elsewhere does not.
const goldenStreamHash = 0x1400e180477e7101

// goldenStream drives a seeded P=32 trace through every entry point of
// the model: single- and multi-line reads and writes over a hot shared
// region (coherence traffic), a large region (L2 capacity evictions and
// writebacks) and per-processor private regions, plus prefetches, page
// migrations and memory degradation. It returns the digest of every
// latency the model returned and of the final per-processor counters.
func goldenStream(t *testing.T) (uint64, *fixture) {
	const procs = 32
	f := newFixture(t, procs)
	rng := rand.New(rand.NewSource(26))

	type region struct{ base, size int64 }
	hot := region{f.space.AllocPages(16<<10, 0), 16 << 10}
	big := region{f.space.AllocPages(2<<20, 9), 2 << 20}
	regions := []region{hot, big}
	for p := 0; p < procs; p += 3 {
		size := int64(8<<10 + rng.Intn(24<<10))
		regions = append(regions, region{f.space.Alloc(size, p), size})
	}

	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}

	now := int64(0)
	for i := 0; i < 40000; i++ {
		now += int64(rng.Intn(120))
		p := rng.Intn(procs)
		r := regions[0]
		switch k := rng.Intn(10); {
		case k < 2:
			r = regions[1]
		case k < 4:
			r = regions[2+rng.Intn(len(regions)-2)]
		}
		off := int64(rng.Intn(int(r.size)))
		size := int64(1 + rng.Intn(16))
		switch rng.Intn(8) {
		case 0:
			size = int64(1 + rng.Intn(1024)) // multi-line range
		case 1:
			size = int64(4096 + rng.Intn(64<<10)) // sweep
		}
		if off+size > r.size {
			size = r.size - off
		}
		switch op := rng.Intn(100); {
		case op < 8:
			put(f.sys.Prefetch(p, now, r.base+off, size))
		case op < 9:
			f.space.Migrate(r.base+off, size, rng.Intn(procs))
		case op < 10 && i%7 == 0:
			f.sys.DegradeMemory(rng.Intn(procs/4), int64(1+rng.Intn(3)))
		default:
			put(f.sys.Access(p, now, r.base+off, size, op%3 == 0))
		}
	}
	for p := range f.mon.Per {
		c := f.mon.Per[p]
		for _, v := range []*int64{
			&c.Refs, &c.L1Hits, &c.L2Hits, &c.LocalMisses, &c.RemoteMisses, &c.DirtyMisses,
			&c.Upgrades, &c.Invalidations, &c.Writebacks, &c.Prefetches, &c.PrefetchFills,
		} {
			put(*v)
			*v = 0
		}
		if c != (perfmon.Counters{}) {
			t.Fatalf("processor %d: the model wrote a counter the digest does not hash: %+v", p, c)
		}
	}
	return h.Sum64(), f
}

// TestAccessStreamGolden pins the model's exact behaviour: every latency
// and counter of a long mixed trace must match the recorded digest, and
// the coherence invariants must hold at its end.
func TestAccessStreamGolden(t *testing.T) {
	got, f := goldenStream(t)
	if got != goldenStreamHash {
		t.Fatalf("access stream digest %#x, want %#x", got, uint64(goldenStreamHash))
	}
	for p := 0; p < f.cfg.Processors; p++ {
		if !checkInclusion(f.sys, p) {
			t.Fatalf("inclusion violated on processor %d", p)
		}
	}
	if !checkDirectory(f.sys) || !checkSingleWriter(f.sys) {
		t.Fatal("directory or single-writer invariant violated")
	}
}

// BenchmarkAccess measures the host cost of one simulated reference on
// four streams: L1 hits on the most recently used way, L1 hits that each
// move a way to the front of its set (a walk over exactly the L1's
// capacity, so every set alternates two lines), L2 hits (a working set
// between the two cache sizes, walked line by line so every L1 lookup
// misses), and a P=32 mix of misses, upgrades and invalidations over
// shared data.
func BenchmarkAccess(b *testing.B) {
	run := func(b *testing.B, procs int, setup func(f *fixture) (p []int, addr []int64, write []bool)) {
		f := newFixture(b, procs)
		ps, addrs, writes := setup(f)
		n := len(addrs)
		var refs int64
		for i := range f.mon.Per {
			refs -= f.mon.Per[i].Refs
		}
		b.ReportAllocs()
		b.ResetTimer()
		now := int64(0)
		for i := 0; i < b.N; i++ {
			j := i % n
			now += 40
			f.sys.Access(ps[j], now, addrs[j], 8, writes[j])
		}
		b.StopTimer()
		for i := range f.mon.Per {
			refs += f.mon.Per[i].Refs
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(refs, 1)), "ns/ref")
	}
	walk := func(size int64) func(f *fixture) ([]int, []int64, []bool) {
		return func(f *fixture) ([]int, []int64, []bool) {
			base := f.space.Alloc(size, 0)
			n := int(size / int64(f.cfg.LineSize))
			ps, addrs, writes := make([]int, n), make([]int64, n), make([]bool, n)
			for i := range addrs {
				addrs[i] = base + int64(i*f.cfg.LineSize)
				writes[i] = i%4 == 0
				f.sys.Access(0, 0, addrs[i], 8, true) // warm, owned
			}
			return ps, addrs, writes
		}
	}
	b.Run("L1Hit", func(b *testing.B) { run(b, 8, walk(16<<10)) })
	b.Run("L1HitMove", func(b *testing.B) { run(b, 8, walk(int64(machine.DASH(8).L1.Size))) })
	b.Run("L2Hit", func(b *testing.B) { run(b, 8, walk(128<<10)) })
	b.Run("MissMixP32", func(b *testing.B) {
		run(b, 32, func(f *fixture) ([]int, []int64, []bool) {
			rng := rand.New(rand.NewSource(1))
			hot := f.space.AllocPages(64<<10, 0)
			big := f.space.AllocPages(8<<20, 16)
			const n = 1 << 16
			ps, addrs, writes := make([]int, n), make([]int64, n), make([]bool, n)
			for i := range addrs {
				ps[i] = rng.Intn(32)
				if rng.Intn(2) == 0 {
					addrs[i] = hot + rng.Int63n(64<<10)
				} else {
					addrs[i] = big + rng.Int63n(8<<20)
				}
				writes[i] = rng.Intn(3) == 0
			}
			return ps, addrs, writes
		})
	})
}
