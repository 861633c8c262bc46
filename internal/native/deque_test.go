package native

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDequeOwnerThiefOrder pins the two consumption orders of the
// Chase-Lev deque on a single thread: the owner's popBottom is LIFO
// over its own pushes, while takeTop — the path both thieves and (for
// simulator parity) the owner's take() use — is FIFO.
func TestDequeOwnerThiefOrder(t *testing.T) {
	mk := func(n int) ([]*task, *chaseLev) {
		d := &chaseLev{}
		d.init()
		ts := make([]*task, n)
		for i := range ts {
			ts[i] = &task{idx: int32(i)}
			d.pushBottom(ts[i])
		}
		return ts, d
	}

	ts, d := mk(8)
	for i := 7; i >= 0; i-- { // LIFO
		if got := d.popBottom(); got != ts[i] {
			t.Fatalf("popBottom: got %v want task %d", got, i)
		}
	}
	if got := d.popBottom(); got != nil {
		t.Fatalf("popBottom on empty deque: got %v", got)
	}

	ts, d = mk(8)
	for i := 0; i < 8; i++ { // FIFO
		if got := d.takeTop(); got != ts[i] {
			t.Fatalf("takeTop: got %v want task %d", got, i)
		}
	}
	if got := d.takeTop(); got != nil {
		t.Fatalf("takeTop on empty deque: got %v", got)
	}

	// pushBottomN publishes a batch in slice order: takeTop sees the
	// batch FIFO, interleaved correctly with earlier single pushes.
	ts, d = mk(2)
	batch := []*task{{idx: 100}, {idx: 101}, {idx: 102}}
	d.pushBottomN(batch)
	want := []*task{ts[0], ts[1], batch[0], batch[1], batch[2]}
	for i, w := range want {
		if got := d.takeTop(); got != w {
			t.Fatalf("takeTop after pushBottomN: pos %d got %v want idx %d", i, got, w.idx)
		}
	}
}

// TestDequeGrow fills past the initial ring capacity and checks that
// every task survives the buffer swap, still in FIFO order from the top.
func TestDequeGrow(t *testing.T) {
	d := &chaseLev{}
	d.init()
	const n = dequeInitialCap*4 + 7
	ts := make([]*task, n)
	for i := range ts {
		ts[i] = &task{idx: int32(i)}
		d.pushBottom(ts[i])
	}
	if got := d.size(); got != n {
		t.Fatalf("size after grow = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if got := d.takeTop(); got != ts[i] {
			t.Fatalf("takeTop after grow: got %v want task %d", got, i)
		}
	}
}

// TestDequeConcurrentSteals is the randomized exactly-once torture
// test for the lock-free protocol, meant for -race -count=3: one owner
// goroutine does randomized pushBottom/pushBottomN/popBottom (forcing
// grows mid-steal) while thief goroutines hammer takeTop. Every pushed
// task must be consumed exactly once, and the owner/thief counts must
// add up with nothing lost to a CAS race.
func TestDequeConcurrentSteals(t *testing.T) {
	const (
		thieves = 4
		total   = 20000
	)
	d := &chaseLev{}
	d.init()
	seen := make([]int32, total)
	var consumed atomic.Int64
	var done atomic.Bool
	eat := func(tk *task) {
		if tk == nil {
			return
		}
		if n := atomic.AddInt32(&seen[tk.idx], 1); n != 1 {
			t.Errorf("task %d consumed %d times", tk.idx, n)
		}
		consumed.Add(1)
	}

	var wg sync.WaitGroup
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() || d.size() > 0 {
				tk := d.takeTop()
				if tk == nil {
					runtime.Gosched() // keep single-core runs livelock-free
					continue
				}
				eat(tk)
			}
		}()
	}

	// Owner: randomized single pushes, batch pushes, and pops.
	rng := rand.New(rand.NewSource(42))
	next := 0
	for next < total {
		switch rng.Intn(4) {
		case 0: // batch push, one publishing store for the burst
			n := 1 + rng.Intn(8)
			if next+n > total {
				n = total - next
			}
			batch := make([]*task, n)
			for i := range batch {
				batch[i] = &task{idx: int32(next)}
				next++
			}
			d.pushBottomN(batch)
		case 1: // owner pop competes with the thieves' CAS
			eat(d.popBottom())
		default:
			d.pushBottom(&task{idx: int32(next)})
			next++
		}
	}
	done.Store(true)
	wg.Wait()
	if got := consumed.Load(); got != total {
		t.Fatalf("consumed %d tasks, want %d", got, total)
	}
	if got := d.size(); got != 0 {
		t.Fatalf("deque size after drain = %d", got)
	}
}

// popBottom removes the newest element, racing thieves for the last one:
// the owner's LIFO end of the Chase-Lev algorithm, which the scheduler
// does not use (owners take FIFO through takeTop) but these tests drive.
// Owner only. It stores the decremented bottom before loading top; the
// seq-cst store/load pair is the StoreLoad fence that makes the owner and
// a racing thief agree on who took the last element (at most one of the
// bottom decrement and the top CAS wins).
func (d *chaseLev) popBottom() *task {
	b := d.bottom.Load() - 1
	buf := d.buf.Load()
	d.bottom.Store(b)
	tp := d.top.Load()
	if tp > b {
		// Empty: restore bottom.
		d.bottom.Store(b + 1)
		return nil
	}
	t := buf.get(b)
	if tp == b {
		// Last element: the top CAS decides against a racing thief.
		if !d.top.CompareAndSwap(tp, tp+1) {
			t = nil
		}
		d.bottom.Store(b + 1)
		return t
	}
	return t
}
