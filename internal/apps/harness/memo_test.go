package harness

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoStructKeys: a Memo keyed by a struct builds once per distinct
// key and evicts the oldest key past Cap.
func TestMemoStructKeys(t *testing.T) {
	type params struct {
		N    int
		Frac float64
	}
	m := Memo[params, int]{Cap: 2}
	builds := 0
	get := func(k params) int { return m.Get(k, func() int { builds++; return k.N * 10 }) }
	a, b, c := params{1, 0.5}, params{2, 0.5}, params{1, 0.25}
	if get(a) != 10 || get(a) != 10 || get(b) != 20 || builds != 2 {
		t.Fatalf("after a, a, b: %d builds, want 2", builds)
	}
	get(c) // evicts a
	if keys := m.Keys(); len(keys) != 2 || keys[0] != b || keys[1] != c {
		t.Fatalf("keys %v, want [%v %v]", keys, b, c)
	}
	get(a)
	if builds != 4 {
		t.Fatalf("%d builds, want 4: an evicted key builds again", builds)
	}
}

// TestStashTakeAndPut: Take returns the most recently put value of its
// key and removes it; Put drops the oldest value past Cap.
func TestStashTakeAndPut(t *testing.T) {
	s := Stash[string, int]{Cap: 3}
	if _, ok := s.Take("a"); ok {
		t.Fatal("an empty stash gave a value")
	}
	s.Put("a", 1)
	s.Put("b", 2)
	s.Put("a", 3)
	if v, ok := s.Take("a"); !ok || v != 3 {
		t.Fatalf("Take(a) = %d, %v; want the newest, 3", v, ok)
	}
	s.Put("c", 4)
	s.Put("d", 5) // drops a's 1, the oldest
	if n := len(s.entries); n != 3 {
		t.Fatalf("%d values stashed, want Cap 3", n)
	}
	if v, ok := s.Take("a"); ok {
		t.Fatalf("Take(a) = %d after the oldest value was dropped", v)
	}
	for k, want := range map[string]int{"b": 2, "c": 4, "d": 5} {
		if v, ok := s.Take(k); !ok || v != want {
			t.Fatalf("Take(%s) = %d, %v; want %d", k, v, ok, want)
		}
	}
}

// TestStashOneOwnerAtATime: goroutines that take a value, use it and put
// it back under one key never hold the same value at once — what lets
// two runtimes run equal Params together. Run it under -race.
func TestStashOneOwnerAtATime(t *testing.T) {
	type scratch struct{ inUse atomic.Bool }
	s := Stash[int, *scratch]{Cap: 4}
	var made atomic.Int64
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 500 {
				v, ok := s.Take(7)
				if !ok {
					v = new(scratch)
					made.Add(1)
				}
				if !v.inUse.CompareAndSwap(false, true) {
					t.Error("two goroutines hold one stashed value")
					return
				}
				v.inUse.Store(false)
				s.Put(7, v)
			}
		}()
	}
	wg.Wait()
	if n := len(s.entries); n > 4 {
		t.Fatalf("%d values stashed, more than Cap", n)
	}
	t.Logf("%d values made for 4000 takes", made.Load())
}
