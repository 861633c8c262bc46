// Package memsim models the shared address space of the simulated
// machine. Memory is paged; every page has a home processor whose cluster
// memory services misses to it. Objects are allocated at simulated
// addresses while their contents live in ordinary Go slices, so
// applications compute real results while the simulator charges realistic
// memory latencies.
//
// Following the paper, placed allocation (new(proc)) and migrate(obj,
// proc) name a processor; the page records that processor as the object's
// home (the paper's footnote 3: the runtime keeps an object's location in
// a variable rather than asking the OS), and the page physically lives in
// that processor's cluster memory. Migration operates on whole pages
// (footnote 2).
package memsim

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"github.com/coolrts/cool/internal/machine"
)

// arenaShift positions each cluster's allocation arena in a disjoint
// region of the simulated address space.
const arenaShift = 36

// Space is the simulated shared address space.
//
// Writers (Alloc, AllocPages, Migrate, Reset) must be serialized by the
// caller. Readers (HomeProc, HomeCluster) need no lock and may run
// concurrently with a writer: they see each page's home either before or
// after the write.
type Space struct {
	pageSize    int64
	pageShift   uint
	clusters    int
	clusterSize int
	procs       int
	next        []int64 // per-cluster bump pointer
	// pageProc[c] maps a page offset within cluster c's arena to the
	// page's home processor (-1 = unrecorded). Arenas are bump-allocated,
	// so offsets are dense and a flat table beats a map on the home
	// lookup that placement performs per spawned task. A table never
	// changes length in place: growth publishes a copy at least twice as
	// long, so a reader holding the old one still reads valid entries.
	pageProc []atomic.Pointer[[]atomic.Int32]
}

// New creates an address space for the given machine.
func New(cfg machine.Config) *Space {
	s := &Space{
		pageSize:    int64(cfg.PageSize),
		pageShift:   uint(bits.TrailingZeros64(uint64(cfg.PageSize))),
		clusters:    cfg.Clusters(),
		clusterSize: cfg.ClusterSize,
		procs:       cfg.Processors,
	}
	s.pageProc = make([]atomic.Pointer[[]atomic.Int32], s.clusters)
	s.next = make([]int64, s.clusters)
	for c := range s.next {
		// Skip the first page of each arena so address 0 is never valid.
		s.next[c] = int64(c+1)<<arenaShift + s.pageSize
		s.pageProc[c].Store(new([]atomic.Int32))
	}
	return s
}

// Reset rewinds the space to its post-New state: every arena's bump
// pointer returns to its first usable page and all recorded page homes
// are forgotten. Addresses handed out before the reset become invalid
// (they will be re-issued to later allocations), so a reset is only
// legal between program runs — the warm-runtime reuse path. The page
// tables keep their capacity so a reused space re-allocates without
// regrowing them.
func (s *Space) Reset() {
	for c := range s.next {
		s.next[c] = int64(c+1)<<arenaShift + s.pageSize
	}
	for c := range s.pageProc {
		t := *s.pageProc[c].Load()
		for i := range t {
			t[i].Store(-1)
		}
	}
}

// Clusters returns the number of memory modules (clusters).
func (s *Space) Clusters() int { return s.clusters }

// PageSize returns the migration granularity in bytes.
func (s *Space) PageSize() int64 { return s.pageSize }

func (s *Space) checkProc(proc int) {
	if proc < 0 || proc >= s.procs {
		panic(fmt.Sprintf("memsim: processor %d out of range [0,%d)", proc, s.procs))
	}
}

// clusterOf maps a processor to its cluster.
func (s *Space) clusterOf(proc int) int { return proc / s.clusterSize }

// Alloc reserves size bytes homed at processor proc and returns the base
// address. Allocations are 64-byte aligned; small objects may share a
// page, as on a real machine (the page keeps the first allocator's home).
func (s *Space) Alloc(size int64, proc int) int64 {
	if size <= 0 {
		panic("memsim: allocation size must be positive")
	}
	s.checkProc(proc)
	cluster := s.clusterOf(proc)
	const align = 64
	base := (s.next[cluster] + align - 1) &^ (align - 1)
	s.next[cluster] = base + size
	s.recordPages(base, size, proc, false)
	return base
}

// AllocPages reserves size bytes rounded up to whole pages, so the object
// can later be migrated without dragging page-mates along.
func (s *Space) AllocPages(size int64, proc int) int64 {
	if size <= 0 {
		panic("memsim: allocation size must be positive")
	}
	s.checkProc(proc)
	cluster := s.clusterOf(proc)
	base := (s.next[cluster] + s.pageSize - 1) &^ (s.pageSize - 1)
	s.next[cluster] = base + (size+s.pageSize-1)&^(s.pageSize-1)
	s.recordPages(base, size, proc, false)
	return base
}

// ArenaOffset maps addr to (arena cluster, byte offset within that
// arena). Arenas are bump-allocated from their start, so offsets are
// dense: tables indexed by them (the page tables here, the cache model's
// directory) stay compact. It panics on an address outside every arena.
func (s *Space) ArenaOffset(addr int64) (int, int64) {
	c := s.arenaCluster(addr)
	return c, addr - int64(c+1)<<arenaShift
}

// pageOffset maps addr to (arena cluster, page offset within that
// arena). Every allocation lives inside a single arena, so a span's
// pages share one table.
func (s *Space) pageOffset(addr int64) (int, int64) {
	c, off := s.ArenaOffset(addr)
	return c, off >> s.pageShift
}

// growTable returns cluster c's page table, first replacing it with one
// that covers offset off if it does not: at least twice as long, the old
// entries copied and the new ones -1 (unrecorded).
func (s *Space) growTable(c int, off int64) []atomic.Int32 {
	t := *s.pageProc[c].Load()
	if off < int64(len(t)) {
		return t
	}
	nt := make([]atomic.Int32, max(2*int64(len(t)), off+1))
	for i := range nt {
		if i < len(t) {
			nt[i].Store(t[i].Load())
		} else {
			nt[i].Store(-1)
		}
	}
	s.pageProc[c].Store(&nt)
	return nt
}

// recordPages stores the home processor of every page spanned by
// [addr, addr+size). When overwrite is false, pages that already have a
// home (shared with an earlier small allocation) keep it.
func (s *Space) recordPages(addr, size int64, proc int, overwrite bool) {
	c, first := s.pageOffset(addr)
	last := first + ((addr+size-1)>>s.pageShift - addr>>s.pageShift)
	t := s.growTable(c, last)
	for pg := first; pg <= last; pg++ {
		if !overwrite && t[pg].Load() >= 0 {
			continue
		}
		t[pg].Store(int32(proc))
	}
}

// Migrate re-homes every page spanned by [addr, addr+size) to processor
// proc's memory. It returns the number of pages moved.
func (s *Space) Migrate(addr, size int64, proc int) int {
	s.checkProc(proc)
	if size <= 0 {
		panic("memsim: migrate size must be positive")
	}
	s.recordPages(addr, size, proc, true)
	first := addr >> s.pageShift
	last := (addr + size - 1) >> s.pageShift
	return int(last - first + 1)
}

// HomeProc returns the processor that homes the page containing addr.
func (s *Space) HomeProc(addr int64) int {
	c, off := s.pageOffset(addr)
	if t := *s.pageProc[c].Load(); off < int64(len(t)) {
		if p := t[off].Load(); p >= 0 {
			return int(p)
		}
	}
	// Unrecorded page: attribute it to the first processor of the
	// arena's cluster.
	return c * s.clusterSize
}

// HomeCluster returns the cluster whose local memory holds the page
// containing addr (the unit the cache model charges against).
func (s *Space) HomeCluster(addr int64) int {
	c, off := s.pageOffset(addr)
	if t := *s.pageProc[c].Load(); off < int64(len(t)) {
		if p := t[off].Load(); p >= 0 {
			return s.clusterOf(int(p))
		}
	}
	return c
}

func (s *Space) arenaCluster(addr int64) int {
	c := int(addr>>arenaShift) - 1
	if c < 0 || c >= s.clusters {
		panic(fmt.Sprintf("memsim: address %#x outside any arena", addr))
	}
	return c
}
