package serve

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	cool "github.com/coolrts/cool"
	"github.com/coolrts/cool/internal/apps"
	"github.com/coolrts/cool/internal/apps/pancho"
)

func keyed(key, app, size string) *Job {
	return newJob("j", Request{App: app, Size: size, Key: key}, 0)
}

func TestResidencyLRUEvictsOldestSpace(t *testing.T) {
	r := newResidency(2)
	r.Store(keyed("a", "pancho", "small"), "prepA")
	r.Store(keyed("b", "pancho", "small"), "prepB")
	if _, ok := r.Lookup(keyed("a", "pancho", "small")); !ok {
		t.Fatal("space a not resident after store")
	}
	// a was just touched, so adding c evicts b (the least recently served).
	r.Store(keyed("c", "pancho", "small"), "prepC")
	if _, ok := r.Lookup(keyed("b", "pancho", "small")); ok {
		t.Fatal("space b survived eviction")
	}
	if prep, ok := r.Lookup(keyed("a", "pancho", "small")); !ok || prep != "prepA" {
		t.Fatalf("space a lost: %v %v", prep, ok)
	}
	if prep, ok := r.Lookup(keyed("c", "pancho", "small")); !ok || prep != "prepC" {
		t.Fatalf("space c lost: %v %v", prep, ok)
	}
}

func TestResidencyIsPerSpace(t *testing.T) {
	// Two spaces with identical workloads do not share prepared state:
	// a space is private to its tenant.
	r := newResidency(4)
	r.Store(keyed("tenant1", "pancho", "small"), "prep1")
	if _, ok := r.Lookup(keyed("tenant2", "pancho", "small")); ok {
		t.Fatal("tenant2 served tenant1's resident state")
	}
	// The same space with a different workload is a different entry too.
	if _, ok := r.Lookup(keyed("tenant1", "pancho", "medium")); ok {
		t.Fatal("medium job served small's resident state")
	}
	// The default size preset and its explicit spelling share state.
	if _, ok := r.Lookup(keyed("tenant1", "pancho", "")); !ok {
		t.Fatal(`size "" did not resolve to the "small" entry`)
	}
}

func TestResidencyIgnoresKeylessJobs(t *testing.T) {
	r := newResidency(4)
	r.Store(keyed("", "pancho", "small"), "prep")
	if _, ok := r.Lookup(keyed("", "pancho", "small")); ok {
		t.Fatal("keyless job has no space to be resident")
	}
	if r.Hits() != 0 || r.Misses() != 0 {
		t.Fatalf("keyless probes counted: hits=%d misses=%d", r.Hits(), r.Misses())
	}
}

func TestResidencyCounters(t *testing.T) {
	r := newResidency(1)
	j := keyed("a", "pancho", "small")
	if _, ok := r.Lookup(j); ok {
		t.Fatal("hit on empty cache")
	}
	r.Store(j, "prep")
	if _, ok := r.Lookup(j); !ok {
		t.Fatal("miss after store")
	}
	if r.Hits() != 1 || r.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", r.Hits(), r.Misses())
	}
}

func TestResidencyHitAllocatesNothing(t *testing.T) {
	r := newResidency(4)
	spaces := make([]*Job, 4)
	for i := range spaces {
		spaces[i] = keyed(fmt.Sprintf("tenant%d", i), "pancho", "")
		r.Store(spaces[i], i)
	}
	i := 0
	// Each probe hits the least recently served space: a full reorder.
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := r.Lookup(spaces[i%len(spaces)]); !ok {
			t.Fatal("resident space missed")
		}
		i++
	}); n != 0 {
		t.Fatalf("a residency hit allocates %.1f times, want 0", n)
	}
}

func TestResidencyBorrowedViewStoresNothing(t *testing.T) {
	r := newResidency(2)
	r.Store(keyed("a", "pancho", "small"), "prepA")
	r.Store(keyed("b", "pancho", "small"), "prepB")
	v := r.borrow()
	if _, ok := v.Lookup(keyed("c", "pancho", "small")); ok {
		t.Fatal("borrowed view hit a space never stored")
	}
	v.Store(keyed("c", "pancho", "small"), "prepC")
	if prep, ok := v.Lookup(keyed("a", "pancho", "small")); !ok || prep != "prepA" {
		t.Fatalf("borrowed view lost the owner's space a: %v %v", prep, ok)
	}
	// The view's probes count on the owner; its store evicted nothing
	// and made nothing resident.
	if r.Hits() != 1 || r.Misses() != 1 {
		t.Fatalf("owner hits=%d misses=%d, want 1/1", r.Hits(), r.Misses())
	}
	if _, ok := r.Lookup(keyed("c", "pancho", "small")); ok {
		t.Fatal("borrowed view's store made space c resident")
	}
	if _, ok := r.Lookup(keyed("b", "pancho", "small")); !ok {
		t.Fatal("borrowed view's store evicted space b")
	}
}

// TestServeResidencyFollowsAffinity streams keyed pancho jobs through
// the default space-affinity router and asserts the residency payoff
// materializes: after each space's first job, the rest are served from
// resident prepared state.
func TestServeResidencyFollowsAffinity(t *testing.T) {
	svc, err := NewService(Config{Runtimes: 2, Procs: 2, ResidentSpaces: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain()

	const spaces, rounds = 3, 4
	for round := 0; round < rounds; round++ {
		for s := 0; s < spaces; s++ {
			j, err := svc.Submit(Request{App: "pancho", Size: "small", Key: fmt.Sprintf("space%d", s)})
			if err != nil {
				t.Fatal(err)
			}
			if !j.Wait(60 * time.Second) {
				t.Fatalf("round %d space %d stuck", round, s)
			}
			if snap := j.Snapshot(); snap.State != "done" {
				t.Fatalf("round %d space %d: %s (%s)", round, s, snap.State, snap.Error)
			}
		}
	}

	var hits, misses int64
	for _, e := range svc.Report().Runtimes {
		hits += e.PrepHits
		misses += e.PrepMisses
	}
	if hits+misses != spaces*rounds {
		t.Fatalf("probes=%d, want %d", hits+misses, spaces*rounds)
	}
	// Sticky routing keeps each space on one runtime, so only its first
	// job misses (capacity 4 holds every space wherever placement lands
	// them); a router that bounced a space between runtimes would miss
	// again on each new runtime.
	if misses != spaces {
		t.Fatalf("misses=%d, want one cold miss per space (%d); hits=%d", misses, spaces, hits)
	}
}

// TestResidencyStoreReturnsWhatItDrops: Store hands back exactly the
// handle the cache let go of — the least recently served space's on an
// eviction, the space's previous handle on a replacement, nothing when
// it keeps the new one in a free slot — and on a borrowed view, or for
// a keyless job, the handle it was given, keeping nothing.
func TestResidencyStoreReturnsWhatItDrops(t *testing.T) {
	r := newResidency(2)
	a, b, c := keyed("a", "pancho", "small"), keyed("b", "pancho", "small"), keyed("c", "pancho", "small")
	if got := r.Store(a, "prepA"); got != nil {
		t.Fatalf("store into a free slot dropped %v", got)
	}
	if got := r.Store(b, "prepB"); got != nil {
		t.Fatalf("store into a free slot dropped %v", got)
	}
	r.Lookup(a) // b is now the least recently served
	if got := r.Store(c, "prepC"); got != "prepB" {
		t.Fatalf("eviction dropped %v, want prepB", got)
	}
	if got := r.Store(c, "prepC2"); got != "prepC" {
		t.Fatalf("replacement dropped %v, want prepC", got)
	}
	if got := r.Store(c, "prepC2"); got != nil {
		t.Fatalf("storing the resident handle again dropped %v", got)
	}
	if got := r.borrow().Store(keyed("d", "pancho", "small"), "prepD"); got != "prepD" {
		t.Fatalf("borrowed view's store dropped %v, want its own prepD", got)
	}
	if got := r.Store(keyed("", "pancho", "small"), "prepE"); got != "prepE" {
		t.Fatalf("keyless store dropped %v, want its own prepE", got)
	}
	for _, k := range []struct {
		j    *Job
		want any
	}{{a, "prepA"}, {c, "prepC2"}} {
		if got, ok := r.Lookup(k.j); !ok || got != k.want {
			t.Fatalf("space %s holds %v, want %v", k.j.Req.Key, got, k.want)
		}
	}
	for _, j := range []*Job{b, keyed("d", "pancho", "small")} {
		if _, ok := r.Lookup(j); ok {
			t.Fatalf("space %s is resident after being dropped", j.Req.Key)
		}
	}
}

// TestCatalogRunnerMissAllocBytes guards a residency miss on the
// serving path: a stolen keyed pancho job (a borrowed view's miss) and
// a home job whose store evicts another space each run the analyze
// phase into a Prep an earlier job handed back, so on a warm native P=1
// runtime every such job after the first two (the runtime's first job,
// and the first Prepare with nothing handed back yet) allocates at most
// 16 KB.
func TestCatalogRunnerMissAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	rt, err := cool.NewRuntime(cool.Config{Processors: 1, Backend: cool.BackendNative})
	if err != nil {
		t.Fatal(err)
	}
	home := newResidency(1)
	cases := []struct {
		name string
		res  *Residency
		key  func(i int) string
	}{
		{"stolen", home.borrow(), func(int) string { return "elsewhere" }},
		{"evicting", home, func(i int) string { return fmt.Sprintf("space%d", i%2) }},
	}
	for _, c := range cases {
		for i := 0; i < 5; i++ {
			j := keyed(c.key(i), "pancho", "small")
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := CatalogRunner(rt, j, c.res); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			if err := rt.Reset(); err != nil {
				t.Fatal(err)
			}
			got := m1.TotalAlloc - m0.TotalAlloc
			t.Logf("%s job %d: %d bytes", c.name, i+1, got)
			if i > 1 && got > 16<<10 {
				t.Errorf("%s job %d allocated %d bytes, more than 16 KB", c.name, i+1, got)
			}
		}
	}
	if hits := home.Hits(); hits != 0 {
		t.Fatalf("%d residency hits, want every job to miss", hits)
	}
}

// TestServeKeyedBurstRunsOnceAndVerifies sends bursts of keyed pancho
// jobs, more spaces than the residency holds, through two one-worker
// runtimes, so homes evict, idle runtimes steal and stolen jobs
// analyze into borrowed views: every job runs exactly once and gives
// the verified result. The poisoned arm poisons every handle handed
// back, so a handle handed back while a residency still holds it fails
// the next job that hits it; the recycled arm refills them, under
// -race across runtimes.
func TestServeKeyedBurstRunsOnceAndVerifies(t *testing.T) {
	rt, err := cool.NewRuntime(cool.Config{Processors: 1, Backend: cool.BackendNative})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := apps.RunCatalogOn(rt, "pancho", "small")
	if err != nil {
		t.Fatal(err)
	}
	for _, poison := range []bool{true, false} {
		name := "recycled"
		if poison {
			name = "poisoned"
		}
		t.Run(name, func(t *testing.T) {
			pancho.PoisonReleased(poison)
			defer pancho.PoisonReleased(false)
			var mu sync.Mutex
			ran := make(map[string]int)
			runner := func(rt *cool.Runtime, j *Job, res *Residency) (string, error) {
				mu.Lock()
				ran[j.ID]++
				mu.Unlock()
				return CatalogRunner(rt, j, res)
			}
			svc, err := NewService(Config{Runtimes: 2, Procs: 1, ResidentSpaces: 1, Runner: runner})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Drain()
			var jobs []*Job
			for burst := 0; burst < 4; burst++ {
				for i := 0; i < 12; i++ {
					j, err := svc.Submit(Request{App: "pancho", Size: "small", Key: fmt.Sprintf("space%d", (burst+i/4)%3)})
					if err != nil {
						t.Fatal(err)
					}
					jobs = append(jobs, j)
				}
				for _, j := range jobs {
					if !j.Wait(60 * time.Second) {
						t.Fatalf("%s stuck", j.ID)
					}
				}
			}
			for _, j := range jobs {
				if sn := j.Snapshot(); sn.State != "done" || sn.Verify != ref.Verify {
					t.Fatalf("%s: %s %q (%s), want done %q", j.ID, sn.State, sn.Verify, sn.Error, ref.Verify)
				}
			}
			var steals, hits, misses int64
			for _, e := range svc.Report().Runtimes {
				steals += e.Steals
				hits += e.PrepHits
				misses += e.PrepMisses
			}
			mu.Lock()
			defer mu.Unlock()
			if len(ran) != len(jobs) {
				t.Fatalf("%d distinct jobs ran, want %d", len(ran), len(jobs))
			}
			for id, n := range ran {
				if n != 1 {
					t.Fatalf("%s ran %d times", id, n)
				}
			}
			t.Logf("%d jobs: %d steals, %d residency hits, %d misses", len(jobs), steals, hits, misses)
			if steals == 0 || hits == 0 {
				t.Fatalf("%d steals and %d hits: the burst exercised neither a borrowed view nor a resident space", steals, hits)
			}
		})
	}
}
