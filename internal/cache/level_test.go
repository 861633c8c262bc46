package cache

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"github.com/coolrts/cool/internal/machine"
	"github.com/coolrts/cool/internal/memsim"
	"github.com/coolrts/cool/internal/perfmon"
)

// stampLevel is the reference model for a level: parallel tag, state
// and LRU-stamp slots, a clock bumped once per operation, and a victim
// search that takes the first invalid way, else the smallest stamp.
type stampLevel struct {
	setMask int64
	assoc   int
	tags    []int64 // -1 when invalid
	states  []state
	used    []int64
	tick    int64
}

func newStampLevel(sets, assoc int) *stampLevel {
	n := sets * assoc
	r := &stampLevel{setMask: int64(sets - 1), assoc: assoc, tags: make([]int64, n), states: make([]state, n), used: make([]int64, n)}
	for i := range r.tags {
		r.tags[i] = -1
	}
	return r
}

func (r *stampLevel) lookup(line int64) int {
	set := int(line&r.setMask) * r.assoc
	for i := set; i < set+r.assoc; i++ {
		if r.tags[i] == line {
			return i
		}
	}
	return -1
}

// fill installs an absent line and returns the valid line it evicted,
// if any, as a packed word, else -1.
func (r *stampLevel) fill(line int64, st state) int64 {
	set := int(line&r.setMask) * r.assoc
	v := set
	for i := set; i < set+r.assoc; i++ {
		if r.tags[i] < 0 {
			v = i
			break
		}
		if r.used[i] < r.used[v] {
			v = i
		}
	}
	old := int64(-1)
	if r.tags[v] >= 0 {
		old = word(r.tags[v], r.states[v])
	}
	r.tags[v], r.states[v], r.used[v] = line, st, r.tick
	return old
}

// order returns line's set as packed words, most recently used first,
// invalid ways last.
func (r *stampLevel) order(line int64) []int64 {
	set := int(line&r.setMask) * r.assoc
	idx := make([]int, 0, r.assoc)
	for i := set; i < set+r.assoc; i++ {
		if r.tags[i] >= 0 {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return r.used[idx[a]] > r.used[idx[b]] })
	out := make([]int64, r.assoc)
	for i := range out {
		out[i] = -1
	}
	for k, i := range idx {
		out[k] = word(r.tags[i], r.states[i])
	}
	return out
}

// TestLevelMatchesStampLRU drives a recency-ordered level and the stamp
// reference through the same random hits, fills, drops, state changes
// and presence checks at associativity 1 to 16, with few sets and a line
// range three times the level's size so every set keeps evicting. After
// every operation the touched set must list the same lines and states in
// the reference's stamp order, and a fill must evict the same line.
func TestLevelMatchesStampLRU(t *testing.T) {
	const sets, lineSize = 4, 64
	for _, assoc := range []int{1, 2, 4, 8, 16} {
		rng := rand.New(rand.NewSource(int64(assoc)))
		l := newLevels(machine.CacheGeometry{Size: sets * assoc * lineSize, Assoc: assoc}, lineSize, 1)[0]
		ref := newStampLevel(sets, assoc)
		for op := 0; op < 20000; op++ {
			ref.tick++
			line := int64(rng.Intn(3 * sets * assoc))
			st := state(1 + rng.Intn(2))
			s := l.set(line)
			i := find(s, line)
			if (i >= 0) != (ref.lookup(line) >= 0) {
				t.Fatalf("assoc %d op %d: line %d present %v, reference %v", assoc, op, line, i >= 0, ref.lookup(line) >= 0)
			}
			switch k := rng.Intn(10); {
			case k < 4 && i >= 0: // hit
				touch(s, i)
				ref.used[ref.lookup(line)] = ref.tick
			case k < 4: // fill on a miss
				got, want := insert(s, word(line, st)), ref.fill(line, st)
				if got != want {
					t.Fatalf("assoc %d op %d: fill of %d evicted %#x, reference %#x", assoc, op, line, got, want)
				}
			case k < 6: // drop
				l.invalidate(line)
				if j := ref.lookup(line); j >= 0 {
					ref.tags[j], ref.states[j] = -1, 0
				}
			case k < 8: // state change
				l.setState(line, st)
				if j := ref.lookup(line); j >= 0 {
					ref.states[j] = st
				}
			default: // presence check only
				l.has(line)
			}
			if got, want := l.set(line), ref.order(line); !slices.Equal(got, want) {
				t.Fatalf("assoc %d op %d: set %#x, reference order %#x", assoc, op, got, want)
			}
			if !checkTags(&l) {
				t.Fatalf("assoc %d op %d: layout invariant broken: %#x", assoc, op, l.ways)
			}
		}
	}
}

// TestNewAllocBytes bounds the heap bytes of one cache system at DASH
// geometry and P=32 to 41 KB per processor: one 8-byte word per way
// (8 KB of L1 and 32 KB of L2 each) and little else, so a processor's
// hierarchy fits a host core's L1 data cache.
func TestNewAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const procs = 32
	cfg := machine.DASH(procs)
	space, mon := memsim.New(cfg), perfmon.New(procs)
	// The least of three builds, so a stray allocation elsewhere in the
	// process does not count.
	var got uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		sys := New(cfg, space, mon)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(sys)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < got {
			got = n
		}
	}
	t.Logf("cache.New at P=%d: %d bytes, %d per processor", procs, got, got/procs)
	if limit := uint64(41 << 10 * procs); got > limit {
		t.Fatalf("cache.New allocated %d bytes, more than %d (41 KB per processor)", got, limit)
	}
}
