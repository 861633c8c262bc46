// Package cache simulates the per-processor two-level cache hierarchy of
// the modelled machine together with an invalidation-based directory
// coherence protocol (the essentials of DASH's protocol).
//
// Every simulated memory reference is charged the latency of the level
// that services it: first-level cache, second-level cache, local cluster
// memory, remote cluster memory, or a dirty line in another processor's
// cache. The package feeds the perfmon counters used to regenerate the
// paper's cache-miss figures.
package cache

import (
	"math/bits"

	"github.com/coolrts/cool/internal/machine"
	"github.com/coolrts/cool/internal/memsim"
	"github.com/coolrts/cool/internal/perfmon"
)

// state is a valid line's coherence state, the low two bits of its way.
type state int64

const (
	shared state = iota + 1
	modified
)

// level is one set-associative cache level: one word per way, way i of
// set s at ways[s*assoc+i]. A valid way holds line<<2 | state, an
// invalid way -1 (lines are never negative, and -1>>2 is -1, so a lookup
// compares w>>2 with the line and needs no validity test). Each set keeps
// its valid ways first, most recently used first, so the LRU line is the
// last valid way and a fill's victim is whatever way falls off the end.
type level struct {
	setMask int64
	assoc   int
	ways    []int64
}

// newLevels builds one empty level of geometry g for each of procs
// processors, carving all of them from one allocation.
func newLevels(g machine.CacheGeometry, lineSize, procs int) []level {
	sets := g.Size / (g.Assoc * lineSize)
	n := sets * g.Assoc
	ways := make([]int64, procs*n)
	ls := make([]level, procs)
	for p := range ls {
		lo, hi := p*n, (p+1)*n
		ls[p] = level{setMask: int64(sets - 1), assoc: g.Assoc, ways: ways[lo:hi:hi]}
		ls[p].invalidateAll()
	}
	return ls
}

// invalidateAll empties every set of l. It writes the first way and
// then copies the invalid prefix over the rest, doubling it each time,
// so the bulk of the work is a block copy rather than a word loop.
func (l *level) invalidateAll() {
	w := l.ways
	w[0] = -1
	for n := 1; n < len(w); n *= 2 {
		copy(w[n:], w[:n])
	}
}

// set returns line's set, most recently used way first.
func (l *level) set(line int64) []int64 {
	i := int(line&l.setMask) * l.assoc
	return l.ways[i : i+l.assoc : i+l.assoc]
}

// word packs a valid way.
func word(line int64, st state) int64 { return line<<2 | int64(st) }

// find returns the index of line's way in set s, or -1.
func find(s []int64, line int64) int {
	for i, w := range s {
		if w>>2 == line {
			return i
		}
	}
	return -1
}

// touch makes way i of s the most recently used: it moves to the front
// and the ways before it move back one. A hit in way 0 writes nothing.
func touch(s []int64, i int) {
	if i == 0 {
		return
	}
	w := s[i]
	for ; i > 0; i-- {
		s[i] = s[i-1]
	}
	s[0] = w
}

// insert puts w at the front of s, pushing the ways behind it back one,
// and returns the way pushed out of the set: -1 when the set had an
// invalid way, else the LRU line's word.
func insert(s []int64, w int64) int64 {
	for i := range s {
		w, s[i] = s[i], w
		if w < 0 {
			break
		}
	}
	return w
}

// invalidate drops line from l, if present: its way becomes invalid and
// moves behind the set's valid ways, which keep their order.
func (l *level) invalidate(line int64) {
	s := l.set(line)
	i := find(s, line)
	if i < 0 {
		return
	}
	for ; i+1 < len(s) && s[i+1] >= 0; i++ {
		s[i] = s[i+1]
	}
	s[i] = -1
}

// setState rewrites the state of line's way in l, if present, leaving
// recency alone.
func (l *level) setState(line int64, st state) {
	s := l.set(line)
	if i := find(s, line); i >= 0 {
		s[i] = word(line, st)
	}
}

// has reports whether line is in l, leaving recency alone.
func (l *level) has(line int64) bool { return find(l.set(line), line) >= 0 }

// dirEntry is the directory state for one line: which caches hold it and
// whether one of them holds it modified. The zero entry is a line no
// cache holds.
type dirEntry struct {
	sharers uint64 // bitmask over processors
	owner   int8   // valid when dirty
	dirty   bool
}

// dirPageShift sizes a directory page: 1<<dirPageShift consecutive lines
// (32 KB of address space at 64-byte lines).
const dirPageShift = 9

type dirPage [1 << dirPageShift]dirEntry

// procCache is one processor's private hierarchy.
type procCache struct {
	l1, l2  level
	cluster int
}

// System is the machine-wide cache and coherence simulator.
type System struct {
	cfg       machine.Config
	lineShift uint
	procs     []procCache
	space     *memsim.Space
	mon       *perfmon.Monitor

	// dir is the directory, a dense table per memory arena indexed by
	// the line's offset in the arena (arenas are bump-allocated, so
	// touched lines are dense). Pages are allocated on first touch and
	// never move, so an entry pointer stays valid across later touches.
	dir [][]*dirPage

	// mems models each cluster memory module as a FIFO server: misses
	// arrive, the queue drains one miss per MemOccupancy cycles, and a
	// new miss waits behind the current backlog.
	mems []memModule

	// degrade holds a per-cluster fault-injection multiplier (nil or 1 =
	// healthy) applied to memory service latency and module occupancy.
	degrade []int64
}

// memModule tracks one cluster memory's backlog. Queue length (not an
// absolute busy-until time) makes the model robust to the bounded clock
// skew between processors: an out-of-order arrival cannot reserve the
// module in another processor's simulated future.
type memModule struct {
	qlen float64
	last int64
}

// New builds the cache system for a validated machine configuration.
func New(cfg machine.Config, space *memsim.Space, mon *perfmon.Monitor) *System {
	s := &System{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros64(uint64(cfg.LineSize))),
		space:     space,
		mon:       mon,
	}
	s.dir = make([][]*dirPage, cfg.Clusters())
	s.mems = make([]memModule, cfg.Clusters())
	l1 := newLevels(cfg.L1, cfg.LineSize, cfg.Processors)
	l2 := newLevels(cfg.L2, cfg.LineSize, cfg.Processors)
	s.procs = make([]procCache, cfg.Processors)
	for i := range s.procs {
		s.procs[i] = procCache{l1: l1[i], l2: l2[i], cluster: cfg.ClusterOf(i)}
	}
	return s
}

// Reset returns the system to its state at New, in place: every cache
// empty, every directory entry absent, every memory module idle and
// healthy. It keeps the directory's pages, cleared, and allocates
// nothing.
func (s *System) Reset() {
	for i := range s.procs {
		s.procs[i].l1.invalidateAll()
		s.procs[i].l2.invalidateAll()
	}
	for _, pages := range s.dir {
		for _, pg := range pages {
			if pg != nil {
				clear(pg[:])
			}
		}
	}
	clear(s.mems)
	clear(s.degrade)
}

// entry returns line's directory entry, allocating its page on first
// touch.
func (s *System) entry(line int64) *dirEntry {
	c, off := s.space.ArenaOffset(line << s.lineShift)
	off >>= s.lineShift
	pages := s.dir[c]
	pg := int(off >> dirPageShift)
	for len(pages) <= pg {
		pages = append(pages, nil)
		s.dir[c] = pages
	}
	if pages[pg] == nil {
		pages[pg] = new(dirPage)
	}
	return &pages[pg][off&(1<<dirPageShift-1)]
}

// Access simulates processor p touching [addr, addr+size) starting at
// simulated time now, and returns the total latency in cycles. write
// selects a store (requiring exclusive ownership) versus a load. Misses
// serviced by a memory module queue behind earlier misses to the same
// module (bandwidth contention).
func (s *System) Access(p int, now int64, addr, size int64, write bool) int64 {
	if size <= 0 {
		return 0
	}
	first := addr >> s.lineShift
	last := (addr + size - 1) >> s.lineShift
	var cycles int64
	for line := first; line <= last; line++ {
		cycles += s.accessLine(p, now+cycles, line, write)
	}
	return cycles
}

// Prefetch installs the lines of [addr, addr+size) into p's caches in
// shared state without stalling the processor: only a small issue cost
// per line is returned, while the memory module still spends bandwidth
// on the lines actually fetched. Lines already present (or dirty in
// another cache, which a non-binding prefetch must not disturb) are
// skipped.
func (s *System) Prefetch(p int, now int64, addr, size int64) int64 {
	if size <= 0 {
		return 0
	}
	const issueCost = 2
	pc := &s.procs[p]
	ctr := &s.mon.Per[p]
	first := addr >> s.lineShift
	last := (addr + size - 1) >> s.lineShift
	var cycles int64
	for line := first; line <= last; line++ {
		cycles += issueCost
		ctr.Prefetches++
		if pc.l2.has(line) || pc.l1.has(line) {
			continue
		}
		d := s.entry(line)
		if d.dirty {
			continue // non-binding: leave dirty lines alone
		}
		s.memQueue(s.space.HomeCluster(line<<s.lineShift), now+cycles)
		d.sharers |= 1 << uint(p)
		s.fillL2(p, line, shared)
		insert(pc.l1.set(line), word(line, shared))
		ctr.PrefetchFills++
	}
	return cycles
}

// accessLine services one line reference at time at and returns its
// latency. Only its two hit paths and the fills move a line to the front
// of its set.
func (s *System) accessLine(p int, at int64, line int64, write bool) int64 {
	pc := &s.procs[p]
	ctr := &s.mon.Per[p]
	ctr.Refs++
	lat := &s.cfg.Lat

	// First-level cache.
	s1 := pc.l1.set(line)
	if i := find(s1, line); i >= 0 {
		touch(s1, i)
		if !write || state(s1[0]&3) == modified {
			ctr.L1Hits++
			return lat.L1Hit
		}
		// Write to a shared line: upgrade.
		cyc := s.upgrade(p, line)
		s1[0] = word(line, modified)
		pc.l2.setState(line, modified)
		ctr.Upgrades++
		return lat.L1Hit + cyc
	}

	// Second-level cache.
	s2 := pc.l2.set(line)
	if i := find(s2, line); i >= 0 {
		touch(s2, i)
		st := state(s2[0] & 3)
		var cyc int64
		if write && st != modified {
			cyc = s.upgrade(p, line)
			ctr.Upgrades++
			st = modified
		}
		insert(s1, word(line, st)) // L1 evictions need no directory action
		s2[0] = word(line, st)
		ctr.L2Hits++
		return lat.L2Hit + cyc
	}

	// Miss: consult the directory, then fill both levels.
	cyc, st := s.miss(p, at, line, write)
	s.fillL2(p, line, st)
	insert(s1, word(line, st)) // after fillL2: its victim may free a way in this set
	return cyc
}

// miss services a full cache miss through the directory. Returns the
// latency, including any queueing at the home memory module, and the
// state the line is filled in.
func (s *System) miss(p int, at int64, line int64, write bool) (int64, state) {
	ctr := &s.mon.Per[p]
	lat := &s.cfg.Lat
	myCluster := s.procs[p].cluster

	d := s.entry(line)
	var cycles int64
	if d.dirty && int(d.owner) != p {
		// Serviced cache-to-cache from the dirty owner. The transfer
		// occupies the owner's cluster resources (its bus/directory),
		// so it queues there like a memory-serviced miss.
		owner := int(d.owner)
		ownerCluster := s.procs[owner].cluster
		if ownerCluster == myCluster {
			cycles = lat.LocalMem
		} else {
			cycles = lat.RemoteDirty
		}
		cycles += s.memQueue(ownerCluster, at)
		ctr.DirtyMisses++
		if write {
			s.invalidateIn(owner, line)
			d.sharers = 0
			d.dirty = false
		} else {
			// Owner's copy downgrades to shared; data written home.
			s.downgradeIn(owner, line)
			d.dirty = false
			s.mon.Per[owner].Writebacks++
		}
	} else if home := s.space.HomeCluster(line << s.lineShift); home == myCluster {
		cycles = lat.LocalMem*s.factorOf(home) + s.memQueue(home, at)
		ctr.LocalMisses++
	} else {
		cycles = lat.RemoteMem*s.factorOf(home) + s.memQueue(home, at)
		ctr.RemoteMisses++
	}

	st := shared
	if write {
		// Exclusive: invalidate all other sharers.
		s.invalidateSharers(p, line, d)
		d.sharers = 1 << uint(p)
		d.owner = int8(p)
		d.dirty = true
		st = modified
	} else {
		d.sharers |= 1 << uint(p)
	}
	return cycles, st
}

// memQueue records one miss arriving at the cluster's memory module at
// time at and returns the queueing delay behind the current backlog. The
// backlog drains at one miss per MemOccupancy cycles.
func (s *System) memQueue(cluster int, at int64) int64 {
	occ := s.cfg.Lat.MemOccupancy * s.factorOf(cluster)
	if occ <= 0 {
		return 0
	}
	m := &s.mems[cluster]
	if at > m.last {
		m.qlen -= float64(at-m.last) / float64(occ)
		if m.qlen < 0 {
			m.qlen = 0
		}
		m.last = at
	}
	delay := int64(m.qlen * float64(occ))
	m.qlen++
	return delay
}

// DegradeMemory multiplies cluster's memory service latency and module
// occupancy by factor from now on (fault injection). Dirty misses
// serviced cache-to-cache still queue at the degraded module, so they
// slow down too.
func (s *System) DegradeMemory(cluster int, factor int64) {
	if cluster < 0 || cluster >= len(s.mems) || factor < 1 {
		return
	}
	if s.degrade == nil {
		s.degrade = make([]int64, len(s.mems))
	}
	s.degrade[cluster] = factor
}

// factorOf returns the degradation multiplier for a cluster's memory
// module (1 when healthy).
func (s *System) factorOf(cluster int) int64 {
	if s.degrade == nil || s.degrade[cluster] < 1 {
		return 1
	}
	return s.degrade[cluster]
}

// upgrade obtains exclusive ownership of a line this processor already
// holds shared. Returns the extra latency.
func (s *System) upgrade(p int, line int64) int64 {
	d := s.entry(line)
	s.invalidateSharers(p, line, d)
	d.sharers = 1 << uint(p)
	d.owner = int8(p)
	d.dirty = true
	return s.cfg.Lat.Upgrade
}

// invalidateSharers removes every copy of line except processor p's.
func (s *System) invalidateSharers(p int, line int64, d *dirEntry) {
	mask := d.sharers &^ (1 << uint(p))
	for mask != 0 {
		q := bits.TrailingZeros64(mask)
		mask &^= 1 << uint(q)
		s.invalidateIn(q, line)
	}
	d.sharers &= 1 << uint(p)
}

// invalidateIn drops line from processor q's caches.
func (s *System) invalidateIn(q int, line int64) {
	pc := &s.procs[q]
	pc.l1.invalidate(line)
	pc.l2.invalidate(line)
	s.mon.Per[q].Invalidations++
}

// downgradeIn demotes a modified line in q's caches to shared.
func (s *System) downgradeIn(q int, line int64) {
	pc := &s.procs[q]
	pc.l1.setState(line, shared)
	pc.l2.setState(line, shared)
}

// fillL2 inserts line into p's L2, evicting the LRU way (with
// back-invalidation of L1 to preserve inclusion, and writeback/directory
// maintenance for the victim).
func (s *System) fillL2(p int, line int64, st state) {
	if old := insert(s.procs[p].l2.set(line), word(line, st)); old >= 0 {
		s.evictLine(p, old>>2, state(old&3))
	}
}

// evictLine handles a line leaving p's L2: back-invalidate L1, write back
// if dirty, and update the directory.
func (s *System) evictLine(p int, line int64, st state) {
	s.procs[p].l1.invalidate(line)
	if st == modified {
		s.mon.Per[p].Writebacks++
	}
	d := s.entry(line)
	d.sharers &^= 1 << uint(p)
	if d.dirty && int(d.owner) == p {
		d.dirty = false
	}
	if d.sharers == 0 {
		*d = dirEntry{} // zero is absent
	}
}
