package cache

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// checkTags verifies one level's layout invariants: a way is -1 or a
// line with a valid state, every valid line sits in its own set, no line
// occupies two ways, and no valid way sits behind an invalid one in its
// set.
func checkTags(l *level) bool {
	for i, w := range l.ways {
		if w < 0 {
			if w != -1 {
				return false
			}
			continue
		}
		if i%l.assoc > 0 && l.ways[i-1] < 0 {
			return false
		}
		line, st := w>>2, state(w&3)
		if st != shared && st != modified {
			return false
		}
		if int(line&l.setMask) != i/l.assoc || find(l.set(line), line) != i%l.assoc {
			return false
		}
	}
	return true
}

// forLines calls f on every valid way of l.
func forLines(l *level, f func(line int64, st state)) {
	for _, w := range l.ways {
		if w >= 0 {
			f(w>>2, state(w&3))
		}
	}
}

// checkInclusion verifies L1 ⊆ L2 for one processor, and both levels'
// tag invariants.
func checkInclusion(s *System, p int) bool {
	pc := &s.procs[p]
	if !checkTags(&pc.l1) || !checkTags(&pc.l2) {
		return false
	}
	ok := true
	forLines(&pc.l1, func(line int64, _ state) { ok = ok && pc.l2.has(line) })
	return ok
}

// forEachEntry calls f on every entry of every allocated directory page.
func forEachEntry(s *System, f func(d dirEntry)) {
	for _, pages := range s.dir {
		for _, pg := range pages {
			if pg == nil {
				continue
			}
			for _, d := range pg {
				f(d)
			}
		}
	}
}

// checkDirectory verifies that directory sharer bits agree with cache
// contents: every sharer bit corresponds to a resident line, and every
// resident line has its sharer bit set; a dirty entry's owner holds the
// line modified, and a modified line is its entry's dirty owner; an entry
// no cache shares is the zero entry.
//
// Entries are indexed by arena offset, so the walk over resident lines
// checks each one against its entry, and counts close the other
// direction: resident lines map one-to-one onto the sharer bits they
// check (checkTags rules out a line resident twice in one cache), so
// equal totals leave no bit without a resident line and no dirty entry
// without its modified owner.
func checkDirectory(s *System) bool {
	var resident, owned int
	ok := true
	for p := 0; p < s.cfg.Processors; p++ {
		l2 := &s.procs[p].l2
		if !checkTags(l2) {
			return false
		}
		forLines(l2, func(line int64, st state) {
			d := s.entry(line)
			resident++
			own := d.dirty && int(d.owner) == p
			ok = ok && d.sharers&(1<<uint(p)) != 0 && own == (st == modified)
			if own {
				owned++
			}
		})
	}
	var sharerBits, dirty int
	forEachEntry(s, func(d dirEntry) {
		sharerBits += bits.OnesCount64(d.sharers)
		if d.dirty {
			dirty++
			ok = ok && d.sharers&(1<<uint(d.owner)) != 0
		}
		ok = ok && (d.sharers != 0 || d == dirEntry{})
	})
	return ok && sharerBits == resident && dirty == owned
}

// checkSingleWriter verifies that a modified line exists in exactly one
// cache.
func checkSingleWriter(s *System) bool {
	owners := map[int64]int{}
	for p := 0; p < s.cfg.Processors; p++ {
		forLines(&s.procs[p].l2, func(line int64, st state) {
			if st == modified {
				owners[line]++
			}
		})
	}
	for _, n := range owners {
		if n > 1 {
			return false
		}
	}
	return true
}

func TestCoherenceInvariantsUnderRandomTraffic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fx := struct {
			*fixture
		}{}
		// Build a fresh system per trial.
		cfg := machineConfig(8)
		fxt := newFixture(t, 8)
		_ = cfg
		fx.fixture = fxt
		// A working set small enough to create heavy sharing.
		base := fxt.space.AllocPages(1<<14, 0)
		now := int64(0)
		for i := 0; i < 2000; i++ {
			p := rng.Intn(8)
			off := int64(rng.Intn(1 << 14))
			size := int64(1 + rng.Intn(256))
			if off+size > 1<<14 {
				size = 1<<14 - off
			}
			write := rng.Intn(3) == 0
			now += int64(rng.Intn(200))
			fxt.sys.Access(p, now, base+off, size, write)
			if rng.Intn(5) == 0 {
				fxt.sys.Prefetch(rng.Intn(8), now, base+off, size)
			}
		}
		for p := 0; p < 8; p++ {
			if !checkInclusion(fxt.sys, p) {
				t.Log("inclusion violated")
				return false
			}
		}
		return checkDirectory(fxt.sys) && checkSingleWriter(fxt.sys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func machineConfig(p int) int { return p } // keep the helper signature simple

func TestLatencyIsAlwaysPositiveAndBounded(t *testing.T) {
	fxt := newFixture(t, 16)
	base := fxt.space.AllocPages(1<<13, 4)
	rng := rand.New(rand.NewSource(99))
	// With arrivals slower than the service rate the backlog stays
	// bounded; under sustained overload the queue may grow without
	// bound by design (throughput-limited memory).
	maxLat := fxt.cfg.Lat.RemoteDirty + 30*fxt.cfg.Lat.MemOccupancy
	now := int64(0)
	for i := 0; i < 5000; i++ {
		p := rng.Intn(16)
		off := int64(rng.Intn(1 << 13))
		now += 200
		got := fxt.sys.Access(p, now, base+off, 8, rng.Intn(2) == 0)
		if got < fxt.cfg.Lat.L1Hit {
			t.Fatalf("latency %d below L1 hit", got)
		}
		if got > maxLat {
			t.Fatalf("latency %d above plausible bound %d", got, maxLat)
		}
	}
}

func TestAccessZeroSizeIsFree(t *testing.T) {
	fxt := newFixture(t, 2)
	base := fxt.space.Alloc(64, 0)
	if got := fxt.sys.Access(0, 0, base, 0, false); got != 0 {
		t.Fatalf("zero-size access cost %d", got)
	}
	if fxt.mon.Per[0].Refs != 0 {
		t.Fatal("zero-size access counted a ref")
	}
}
