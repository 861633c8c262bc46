package fault

import (
	"sync"
	"testing"
)

func TestInjectorNumbersSpawnsAndStrikes(t *testing.T) {
	if NewInjector(new(Plan).Stall(0, 10, 5).Fail(1, 20), 2) != nil {
		t.Fatal("a plan with no spawn or launch faults built an injector")
	}
	var none *Injector
	if none.Strikes(0, 0, "w", 0) {
		t.Fatal("a nil injector struck a launch")
	}
	in := NewInjector(new(Plan).PanicTask("w", 2).FailTask("w", 1).FailTask("w", 1).Flaky(1, 100, 50), 2)
	if !in.Tracks("w") || in.Tracks("x") {
		t.Fatalf("tracked w=%v x=%v, want true/false", in.Tracks("w"), in.Tracks("x"))
	}
	for want := 0; want < 4; want++ {
		if idx, panics := in.Spawn("w"); idx != want || panics != (want == 2) {
			t.Fatalf("spawn %d: idx=%d panics=%v", want, idx, panics)
		}
	}
	// Two stacked aborts on spawn 1, then none; spawn 0 has none.
	for i, want := range []bool{true, true, false} {
		if got := in.Strikes(0, 0, "w", 1); got != want {
			t.Fatalf("strike %d on spawn 1 = %v, want %v", i, got, want)
		}
	}
	if in.Strikes(0, 0, "w", 0) {
		t.Fatal("spawn 0 struck without a planted abort")
	}
	// The flaky window on P1 is [100, 150), for every name.
	for _, c := range []struct {
		proc int
		now  int64
		want bool
	}{{1, 99, false}, {1, 100, true}, {1, 149, true}, {1, 150, false}, {0, 120, false}} {
		if got := in.Strikes(c.proc, c.now, "x", 0); got != c.want {
			t.Fatalf("P%d at %d: struck=%v, want %v", c.proc, c.now, got, c.want)
		}
	}
}

// TestInjectorConcurrentSpawnsAndStrikes numbers and strikes from
// several goroutines at once, as native workers do: every spawn index is
// handed out once and every planted abort strikes once.
func TestInjectorConcurrentSpawnsAndStrikes(t *testing.T) {
	const workers, spawns = 8, 100
	p := new(Plan)
	for nth := 0; nth < workers*spawns; nth += 3 {
		p.FailTask("w", nth)
	}
	in := NewInjector(p, 4)
	seen := make([][]int, workers)
	struck := make([]int, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < spawns; i++ {
				idx, _ := in.Spawn("w")
				seen[g] = append(seen[g], idx)
				for in.Strikes(g%4, 0, "w", idx) {
					struck[g]++
				}
			}
		}()
	}
	wg.Wait()
	got := make([]bool, workers*spawns)
	total := 0
	for g := range seen {
		total += struck[g]
		for _, idx := range seen[g] {
			if got[idx] {
				t.Fatalf("spawn index %d handed out twice", idx)
			}
			got[idx] = true
		}
	}
	if want := len(p.Events); total != want {
		t.Fatalf("struck %d launches, want %d", total, want)
	}
}
