package serve

import (
	"fmt"
	"testing"
)

func job(key string) *Job { return newJob("j", Request{App: "x", Key: key}, 0) }

func flat(n, depth int) []EntryStat {
	out := make([]EntryStat, n)
	for i := range out {
		out[i] = EntryStat{ID: i, Queued: depth, Alive: 4}
	}
	return out
}

func TestLeastLoadedPicksShallowest(t *testing.T) {
	r, err := NewRouter("least-loaded", 4)
	if err != nil {
		t.Fatal(err)
	}
	stats := flat(4, 0)
	stats[0].Queued = 3
	stats[1].Queued = 1
	stats[2].Queued = 5
	stats[3].Queued = 1
	stats[3].Running = 1 // depth 2: entry 1 is strictly shallowest
	if got := r.Pick(job(""), stats); got != 1 {
		t.Fatalf("pick = %d, want 1", got)
	}
}

func TestLeastLoadedTieBreaksToLowestID(t *testing.T) {
	r, _ := NewRouter("least-loaded", 4)
	stats := flat(4, 2)
	for i := 0; i < 5; i++ {
		if got := r.Pick(job(""), stats); got != 0 {
			t.Fatalf("tied pick = %d, want 0 (deterministic lowest ID)", got)
		}
	}
}

func TestLeastLoadedDiscountsLostWorkers(t *testing.T) {
	r, _ := NewRouter("least-loaded", 8)
	stats := flat(2, 0)
	// Entry 0: 3 queued on 8 live workers (effective 3). Entry 1: 2
	// queued but only 4 of 8 workers alive (effective 4) — the alive
	// signal must route to entry 0 despite its deeper raw queue.
	stats[0].Queued, stats[0].Alive = 3, 8
	stats[1].Queued, stats[1].Alive = 2, 4
	if got := r.Pick(job(""), stats); got != 0 {
		t.Fatalf("pick = %d, want 0 (entry 1's drained pool weighs deeper)", got)
	}
}

func TestSpaceAffinityStickiness(t *testing.T) {
	r, _ := NewRouter("space-affinity", 4)

	// An unseen key never lands on a strictly deeper entry: the
	// placement spread is bounded below one queue-depth unit.
	stats := flat(3, 0)
	stats[0].Queued = 1
	home := r.Pick(job("tenant1"), stats)
	if home == 0 {
		t.Fatal("unseen key placed on the strictly deeper entry")
	}

	// The key sticks to its home on equal queues, and keeps sticking
	// while the home is one job deeper than the best alternative.
	stats[0].Queued = 0
	if got := r.Pick(job("tenant1"), stats); got != home {
		t.Fatalf("repeat pick = %d, want sticky %d", got, home)
	}
	stats[home].Queued = 1
	if got := r.Pick(job("tenant1"), stats); got != home {
		t.Fatalf("one-deeper pick = %d, want sticky %d", got, home)
	}

	// A home never moves, however far behind it falls: balancing is the
	// pool's steal, not the router's.
	stats[home].Queued = 50
	if got := r.Pick(job("tenant1"), stats); got != home {
		t.Fatalf("deep-home pick = %d, want sticky %d", got, home)
	}
}

func TestSpaceAffinityHomesByKeyCount(t *testing.T) {
	r, _ := NewRouter("space-affinity", 4)
	stats := flat(3, 0)
	// Each new key homes at the entry with the fewest homed keys; ties
	// go to the shallower queue, then to the lower ID.
	stats[0].Queued = 5
	for i, want := range []int{1, 2, 0, 1, 2, 0} {
		if got := r.Pick(job(fmt.Sprintf("k%d", i)), stats); got != want {
			t.Fatalf("key k%d homed at %d, want %d", i, got, want)
		}
	}
	// Key counts, not queue depth, decide: entry 0 is far deeper but
	// homes no more keys than the others.
	stats[0].Queued, stats[1].Queued, stats[2].Queued = 50, 1, 0
	if got := r.Pick(job("k6"), stats); got != 2 {
		t.Fatalf("key k6 homed at %d, want 2 (tied key counts, shallowest)", got)
	}
	if got := r.Pick(job("k7"), stats); got != 1 {
		t.Fatalf("key k7 homed at %d, want 1 (fewest keys)", got)
	}
}

func TestSpaceAffinityKeylessJobsBalance(t *testing.T) {
	r, _ := NewRouter("space-affinity", 4)
	stats := flat(2, 0)
	stats[0].Queued = 4
	if got := r.Pick(job(""), stats); got != 1 {
		t.Fatalf("keyless pick = %d, want least-loaded 1", got)
	}
}

func TestRouterFactoryRejectsUnknown(t *testing.T) {
	if _, err := NewRouter("cool-ranch", 4); err == nil {
		t.Fatal("unknown policy accepted")
	}
	for _, name := range RouterNames() {
		if _, err := NewRouter(name, 4); err != nil {
			t.Fatalf("listed policy %q: %v", name, err)
		}
	}
}
