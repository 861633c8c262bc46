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

type state int8

const (
	invalid state = iota
	shared
	modified
)

// level is one set-associative cache level, stored as three parallel
// arrays indexed by slot: way i of set s is slot s*assoc+i. An invalid
// way holds tag -1 (lines are never negative), so a lookup is a plain
// tag compare and a victim search tests tag < 0; drop keeps the tag and
// the state in step.
type level struct {
	setMask int64
	assoc   int
	tags    []int64 // line address (addr >> lineShift), -1 when invalid
	state   []state
	used    []int64 // LRU timestamp
}

// newLevels builds one level of geometry g for each of procs processors,
// carving all of them from one allocation per array.
func newLevels(g machine.CacheGeometry, lineSize, procs int) []level {
	sets := g.Size / (g.Assoc * lineSize)
	n := sets * g.Assoc
	tags := make([]int64, procs*n)
	for i := range tags {
		tags[i] = -1
	}
	st, used := make([]state, procs*n), make([]int64, procs*n)
	ls := make([]level, procs)
	for p := range ls {
		lo, hi := p*n, (p+1)*n
		ls[p] = level{
			setMask: int64(sets - 1),
			assoc:   g.Assoc,
			tags:    tags[lo:hi:hi],
			state:   st[lo:hi:hi],
			used:    used[lo:hi:hi],
		}
	}
	return ls
}

// lookup returns the slot holding line, or -1.
func (l *level) lookup(line int64) int {
	set := int(line&l.setMask) * l.assoc
	for i, t := range l.tags[set : set+l.assoc] {
		if t == line {
			return set + i
		}
	}
	return -1
}

// victim returns the slot to fill for line (an invalid way if any, else
// the LRU way).
func (l *level) victim(line int64) int {
	set := int(line&l.setMask) * l.assoc
	best := set
	for i := set; i < set+l.assoc; i++ {
		if l.tags[i] < 0 {
			return i
		}
		if l.used[i] < l.used[best] {
			best = i
		}
	}
	return best
}

// fill installs line in slot i.
func (l *level) fill(i int, line int64, st state, tick int64) {
	l.tags[i] = line
	l.state[i] = st
	l.used[i] = tick
}

// drop invalidates slot i.
func (l *level) drop(i int) {
	l.tags[i] = -1
	l.state[i] = invalid
}

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
	l1, l2 level
	tick   int64
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
		s.procs[i] = procCache{l1: l1[i], l2: l2[i]}
	}
	return s
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
		if pc.l2.lookup(line) >= 0 || pc.l1.lookup(line) >= 0 {
			continue
		}
		d := s.entry(line)
		if d.dirty {
			continue // non-binding: leave dirty lines alone
		}
		pc.tick++
		s.memQueue(s.space.HomeCluster(line<<s.lineShift), now+cycles)
		d.sharers |= 1 << uint(p)
		s.fillL2(p, line, shared)
		s.fillL1(p, line, shared)
		ctr.PrefetchFills++
	}
	return cycles
}

// accessLine services one line reference at time at and returns its
// latency.
func (s *System) accessLine(p int, at int64, line int64, write bool) int64 {
	pc := &s.procs[p]
	pc.tick++
	ctr := &s.mon.Per[p]
	ctr.Refs++
	lat := &s.cfg.Lat

	// First-level cache.
	if i := pc.l1.lookup(line); i >= 0 {
		pc.l1.used[i] = pc.tick
		if !write || pc.l1.state[i] == modified {
			ctr.L1Hits++
			return lat.L1Hit
		}
		// Write to a shared line: upgrade.
		cyc := s.upgrade(p, line)
		s.setState(pc, line, modified)
		ctr.Upgrades++
		return lat.L1Hit + cyc
	}

	// Second-level cache.
	if i := pc.l2.lookup(line); i >= 0 {
		pc.l2.used[i] = pc.tick
		st := pc.l2.state[i]
		var cyc int64
		if write && st != modified {
			cyc = s.upgrade(p, line)
			ctr.Upgrades++
			st = modified
		}
		s.fillL1(p, line, st)
		pc.l2.state[i] = st
		ctr.L2Hits++
		return lat.L2Hit + cyc
	}

	// Miss: consult the directory.
	return s.miss(p, at, line, write)
}

// miss services a full cache miss through the directory and fills both
// levels. Returns the latency, including any queueing at the home memory
// module.
func (s *System) miss(p int, at int64, line int64, write bool) int64 {
	ctr := &s.mon.Per[p]
	lat := &s.cfg.Lat
	myCluster := s.cfg.ClusterOf(p)
	homeCluster := s.space.HomeCluster(line << s.lineShift)

	d := s.entry(line)
	var cycles int64
	switch {
	case d.dirty && int(d.owner) != p:
		// Serviced cache-to-cache from the dirty owner. The transfer
		// occupies the owner's cluster resources (its bus/directory),
		// so it queues there like a memory-serviced miss.
		owner := int(d.owner)
		if s.cfg.SameCluster(p, owner) {
			cycles = lat.LocalMem
		} else {
			cycles = lat.RemoteDirty
		}
		cycles += s.memQueue(s.cfg.ClusterOf(owner), at)
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
	case homeCluster == myCluster:
		cycles = lat.LocalMem*s.factorOf(homeCluster) + s.memQueue(homeCluster, at)
		ctr.LocalMisses++
	default:
		cycles = lat.RemoteMem*s.factorOf(homeCluster) + s.memQueue(homeCluster, at)
		ctr.RemoteMisses++
	}

	var st state
	if write {
		// Exclusive: invalidate all other sharers.
		s.invalidateSharers(p, line, d)
		d.sharers = 1 << uint(p)
		d.owner = int8(p)
		d.dirty = true
		st = modified
	} else {
		d.sharers |= 1 << uint(p)
		st = shared
	}

	s.fillL2(p, line, st)
	s.fillL1(p, line, st)
	return cycles
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
	if i := pc.l1.lookup(line); i >= 0 {
		pc.l1.drop(i)
	}
	if i := pc.l2.lookup(line); i >= 0 {
		pc.l2.drop(i)
	}
	s.mon.Per[q].Invalidations++
}

// downgradeIn demotes a modified line in q's caches to shared.
func (s *System) downgradeIn(q int, line int64) {
	pc := &s.procs[q]
	if i := pc.l1.lookup(line); i >= 0 && pc.l1.state[i] == modified {
		pc.l1.state[i] = shared
	}
	if i := pc.l2.lookup(line); i >= 0 && pc.l2.state[i] == modified {
		pc.l2.state[i] = shared
	}
}

// setState updates line's state in both levels of p's hierarchy.
func (s *System) setState(pc *procCache, line int64, st state) {
	if i := pc.l1.lookup(line); i >= 0 {
		pc.l1.state[i] = st
	}
	if i := pc.l2.lookup(line); i >= 0 {
		pc.l2.state[i] = st
	}
}

// fillL1 inserts line into p's L1, evicting the LRU way.
func (s *System) fillL1(p int, line int64, st state) {
	pc := &s.procs[p]
	// L1 is inclusive in L2: evicted L1 lines stay in L2, so no directory
	// action is needed here.
	pc.l1.fill(pc.l1.victim(line), line, st, pc.tick)
}

// fillL2 inserts line into p's L2, evicting the LRU way (with
// back-invalidation of L1 to preserve inclusion, and writeback/directory
// maintenance for the victim).
func (s *System) fillL2(p int, line int64, st state) {
	pc := &s.procs[p]
	v := pc.l2.victim(line)
	if old := pc.l2.tags[v]; old >= 0 && old != line {
		s.evictLine(p, old, pc.l2.state[v])
	}
	pc.l2.fill(v, line, st, pc.tick)
}

// evictLine handles a line leaving p's L2: back-invalidate L1, write back
// if dirty, and update the directory.
func (s *System) evictLine(p int, line int64, st state) {
	pc := &s.procs[p]
	if i := pc.l1.lookup(line); i >= 0 {
		pc.l1.drop(i)
	}
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
