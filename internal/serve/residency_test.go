package serve

import (
	"fmt"
	"testing"
	"time"
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
