package memsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/coolrts/cool/internal/machine"
)

func newSpace(t *testing.T, procs int) *Space {
	t.Helper()
	cfg := machine.DASH(procs)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return New(cfg)
}

func TestAllocHomesAtRequestedProc(t *testing.T) {
	s := newSpace(t, 32)
	for p := 0; p < 32; p++ {
		addr := s.AllocPages(128, p)
		if got := s.HomeProc(addr); got != p {
			t.Errorf("alloc at proc %d homed at %d", p, got)
		}
		if got := s.HomeCluster(addr); got != p/4 {
			t.Errorf("alloc at proc %d in cluster %d, want %d", p, got, p/4)
		}
	}
}

func TestSamePageKeepsFirstHome(t *testing.T) {
	// Small allocations sharing a page keep the first allocator's home,
	// as on a real paged machine.
	s := newSpace(t, 8)
	a := s.Alloc(64, 1)
	b := s.Alloc(64, 2) // same cluster (0), may share a's page
	if a>>12 == b>>12 && s.HomeProc(b) != 1 {
		t.Fatalf("page-mate changed the page home to %d", s.HomeProc(b))
	}
}

func TestAllocationsDoNotOverlap(t *testing.T) {
	s := newSpace(t, 8)
	type span struct{ lo, hi int64 }
	var spans []span
	for i := 0; i < 100; i++ {
		sz := int64(1 + i*37%500)
		a := s.Alloc(sz, i%8)
		spans = append(spans, span{a, a + sz})
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
				t.Fatalf("allocations %d and %d overlap: %+v %+v", i, j, spans[i], spans[j])
			}
		}
	}
}

func TestAllocAlignment(t *testing.T) {
	s := newSpace(t, 8)
	for i := 0; i < 20; i++ {
		a := s.Alloc(int64(i*13+1), 0)
		if a%64 != 0 {
			t.Fatalf("allocation %d not 64-byte aligned: %#x", i, a)
		}
	}
}

func TestAllocPagesIsPageAligned(t *testing.T) {
	s := newSpace(t, 8)
	s.Alloc(100, 1) // disturb the bump pointer
	a := s.AllocPages(100, 1)
	if a%s.PageSize() != 0 {
		t.Fatalf("AllocPages returned %#x, not page aligned", a)
	}
}

func TestMigrateRehomesAllSpannedPages(t *testing.T) {
	s := newSpace(t, 32)
	size := 3*s.PageSize() + 100
	addr := s.AllocPages(size, 0)
	n := s.Migrate(addr, size, 21)
	if n != 4 {
		t.Fatalf("Migrate moved %d pages, want 4", n)
	}
	for off := int64(0); off < size; off += s.PageSize() / 2 {
		if got := s.HomeProc(addr + off); got != 21 {
			t.Fatalf("offset %d homed at %d, want 21", off, got)
		}
		if got := s.HomeCluster(addr + off); got != 5 {
			t.Fatalf("offset %d in cluster %d, want 5", off, got)
		}
	}
}

func TestMigratePreservesHomeUnderComposition(t *testing.T) {
	// Property: the last migration wins, for any sequence of targets.
	s := newSpace(t, 32)
	addr := s.AllocPages(100, 0)
	f := func(targets []uint8) bool {
		last := 0
		for _, tg := range targets {
			p := int(tg) % 32
			s.Migrate(addr, 100, p)
			last = p
		}
		return s.HomeProc(addr) == last || len(targets) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArenaOffsetIsDensePerCluster(t *testing.T) {
	// Each cluster's allocations map to its own arena, at small offsets
	// that grow with the bump pointer: the property dense tables rely on.
	s := newSpace(t, 8)
	a0, b0 := s.Alloc(64, 0), s.Alloc(64, 1)
	a1 := s.AllocPages(64, 4)
	c, offA := s.ArenaOffset(a0)
	if c != 0 || offA <= 0 || offA > 2*s.PageSize() {
		t.Fatalf("ArenaOffset(first alloc) = (%d, %d)", c, offA)
	}
	if c, off := s.ArenaOffset(b0); c != 0 || off != offA+b0-a0 {
		t.Fatalf("ArenaOffset(second alloc) = (%d, %d), want (0, %d)", c, off, offA+b0-a0)
	}
	if c, off := s.ArenaOffset(a1); c != 1 || off != offA {
		t.Fatalf("ArenaOffset(cluster 1 alloc) = (%d, %d), want (1, %d)", c, off, offA)
	}
}

func TestZeroAddressNeverAllocated(t *testing.T) {
	s := newSpace(t, 8)
	for i := 0; i < 10; i++ {
		if a := s.Alloc(64, i%8); a == 0 {
			t.Fatal("allocated address 0")
		}
	}
}

// TestHomeReadsDuringWrites: readers look homes up with no lock while
// one writer allocates (growing both page tables many times over) and
// migrates. Every read returns the page's home before or after the
// write in flight; a freshly allocated page reads as its allocator's.
// After Reset every page reads as unrecorded.
func TestHomeReadsDuringWrites(t *testing.T) {
	s := newSpace(t, 8) // two clusters of four
	const objs = 32
	var addr [objs]int64
	var homes [objs][2]int // an object's two homes; the writer alternates
	for i := range addr {
		homes[i] = [2]int{i % 8, (i + 5) % 8}
		addr[i] = s.AllocPages(s.PageSize(), homes[i][0])
	}
	type alloc struct {
		addr int64
		proc int
	}
	var latest atomic.Pointer[alloc]
	var done atomic.Bool
	const readers = 3
	var wg sync.WaitGroup
	errs := make(chan string, readers) // each reader sends at most once
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				for i, a := range addr {
					h := homes[i]
					if p := s.HomeProc(a); p != h[0] && p != h[1] {
						errs <- fmt.Sprintf("object %d homed at %d, want %d or %d", i, p, h[0], h[1])
						return
					}
					if c := s.HomeCluster(a); c != h[0]/4 && c != h[1]/4 {
						errs <- fmt.Sprintf("object %d in cluster %d, want %d or %d", i, c, h[0]/4, h[1]/4)
						return
					}
				}
				if l := latest.Load(); l != nil && s.HomeProc(l.addr) != l.proc {
					errs <- fmt.Sprintf("fresh page %#x homed at %d, want %d", l.addr, s.HomeProc(l.addr), l.proc)
					return
				}
			}
		}()
	}
	lens := [2]int{len(*s.pageProc[0].Load()), len(*s.pageProc[1].Load())}
	for round := 1; round <= 200; round++ {
		p := round % 8
		s.Alloc(int64(round*8), p)
		a := s.AllocPages(int64(round)*s.PageSize(), p)
		latest.Store(&alloc{a, p})
		for i, a := range addr {
			s.Migrate(a, s.PageSize(), homes[i][round%2])
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	for c, before := range lens {
		if after := len(*s.pageProc[c].Load()); after < 8*before {
			t.Errorf("cluster %d page table grew from %d to %d entries only", c, before, after)
		}
	}

	s.Reset()
	for c := range s.pageProc {
		tab := *s.pageProc[c].Load()
		for pg := range tab {
			if p := tab[pg].Load(); p != -1 {
				t.Fatalf("after Reset, cluster %d page %d homed at %d", c, pg, p)
			}
		}
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	s := newSpace(t, 8)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("alloc zero", func() { s.Alloc(0, 0) })
	mustPanic("alloc bad proc", func() { s.Alloc(64, 99) })
	mustPanic("migrate bad proc", func() { s.Migrate(s.Alloc(64, 0), 64, -1) })
	mustPanic("home outside arena", func() { s.HomeCluster(1) })
}
