package cool

// This file is what a runtime keeps of its jobs across Reset (DESIGN
// §15, "Warm state"): the arrays and monitors the allocation API handed
// out. A run records every handle it is given; Reset moves them onto free
// lists and puts the lists on the shelf, and the next run's first
// allocation takes them back, so a served job's arrays and monitors stop
// being garbage. The shelf is one mutex-guarded list, not a sync.Pool:
// whatever a Reset put there is what the next run finds, whichever
// processor either runs on. It still lets the collector have an idle
// runtime's state: a state that sat on the shelf through two garbage
// collections is dropped, as a sync.Pool would drop it.

import (
	"runtime"
	"runtime/metrics"
	"sync"
)

// maxWarmBytes bounds the array free lists of one runtime: past it,
// Reset drops the lists of every length the finished run did not use.
// What one run allocates is always kept, since its simulated memory was
// allocated too.
const maxWarmBytes = 64 << 20

// maxWarmMonitors bounds the monitor free list of one runtime.
const maxWarmMonitors = 1 << 14

// warmState is what a runtime keeps of its runs' arrays and monitors:
// the handles the current run was given, and free lists of earlier runs'
// handles for the allocation API to reuse.
type warmState struct {
	f64 warmList[*F64]
	i64 warmList[*I64]

	mons     []*Monitor // this run's
	freeMons []*Monitor

	runs uint64 // runs reclaimed so far
}

// warmList is one element type's share of warmState. The free lists
// are keyed by exact element count, so an array is only ever reused at
// its own length, whichever job or allocation call asks for it.
type warmList[H interface{ Len() int }] struct {
	used []H
	free map[int]*freeList[H]
}

// freeList is the free handles of one length and the last run that
// used an array of that length.
type freeList[H any] struct {
	hs  []H
	run uint64
}

// take pops a free handle of n elements; ok is false when none is left.
func (l *warmList[H]) take(n int) (h H, ok bool) {
	f := l.free[n]
	if f == nil || len(f.hs) == 0 {
		return h, false
	}
	h = f.hs[len(f.hs)-1]
	var zero H
	f.hs[len(f.hs)-1] = zero
	f.hs = f.hs[:len(f.hs)-1]
	return h, true
}

// reclaim moves the run's handles onto the free lists, stamping their
// lengths with run, and returns the bytes the free lists then hold.
func (l *warmList[H]) reclaim(run uint64) int64 {
	if l.free == nil {
		l.free = make(map[int]*freeList[H])
	}
	var zero H
	for i, h := range l.used {
		f := l.free[h.Len()]
		if f == nil {
			f = new(freeList[H])
			l.free[h.Len()] = f
		}
		f.hs = append(f.hs, h)
		f.run = run
		l.used[i] = zero
	}
	l.used = l.used[:0]
	var bytes int64
	for n, f := range l.free {
		bytes += int64(n) * 8 * int64(len(f.hs))
	}
	return bytes
}

// dropStale deletes the free lists of the lengths run did not use.
func (l *warmList[H]) dropStale(run uint64) {
	for n, f := range l.free {
		if f.run != run {
			delete(l.free, n)
		}
	}
}

// reclaim moves the finished run's handles onto the free lists and
// holds the lists to their bounds.
func (w *warmState) reclaim() {
	w.runs++
	if w.f64.reclaim(w.runs)+w.i64.reclaim(w.runs) > maxWarmBytes {
		w.f64.dropStale(w.runs)
		w.i64.dropStale(w.runs)
	}
	w.freeMons = append(w.freeMons, w.mons...)
	clear(w.mons)
	w.mons = w.mons[:0]
	if len(w.freeMons) > maxWarmMonitors {
		clear(w.freeMons[maxWarmMonitors:])
		w.freeMons = w.freeMons[:maxWarmMonitors]
	}
}

// monitor returns a free monitor, or a new one, recorded for reclaim.
func (w *warmState) monitor() *Monitor {
	var m *Monitor
	if n := len(w.freeMons); n > 0 {
		m = w.freeMons[n-1]
		w.freeMons[n-1] = nil
		w.freeMons = w.freeMons[:n-1]
	} else {
		m = new(Monitor)
	}
	w.mons = append(w.mons, m)
	return m
}

// warmSlot is a runtime's place on the shelf: the state its last Reset
// put away and the number of collections completed by then. It is its
// own object, so the shelf never keeps a dropped runtime (its engine and
// caches) alive.
type warmSlot struct {
	w      *warmState
	gc     uint64
	listed bool // on shelf.slots
}

// shelf is where the warm state of every reset runtime waits for its
// next run. slots lists the slots that may hold a state, so a sweep
// after each collection can drop the states idle through two of them.
var shelf struct {
	sync.Mutex
	slots  []*warmSlot
	sample [1]metrics.Sample // the completed-collections counter
	sweep  sync.Once         // arms sweepShelf on the first put
}

// gcCount returns the number of completed garbage collections. Caller
// holds shelf.
func gcCount() uint64 {
	if shelf.sample[0].Name == "" {
		shelf.sample[0].Name = "/gc/cycles/total:gc-cycles"
	}
	metrics.Read(shelf.sample[:])
	return shelf.sample[0].Value.Uint64()
}

// warmLocked returns the run's warmState. The run's first allocation
// takes it off the shelf, or starts an empty one when there is none or
// two collections have passed since Reset put it there. Caller holds
// spaceMu.
func (rt *Runtime) warmLocked() *warmState {
	if rt.arrays != nil {
		return rt.arrays
	}
	if s := rt.slot; s != nil {
		shelf.Lock()
		if s.w != nil && gcCount()-s.gc < 2 {
			rt.arrays = s.w
		}
		s.w = nil
		shelf.Unlock()
	}
	if rt.arrays == nil {
		rt.arrays = new(warmState)
	}
	return rt.arrays
}

// reclaimArrays is Reset's last step: the finished run's arrays and
// monitors join the free lists, and the state goes on the shelf until
// the next run's first allocation takes it back.
func (rt *Runtime) reclaimArrays() {
	w := rt.arrays
	if w == nil {
		return
	}
	rt.arrays = nil
	w.reclaim()
	if rt.slot == nil {
		rt.slot = new(warmSlot)
	}
	s := rt.slot
	shelf.Lock()
	s.w, s.gc = w, gcCount()
	if !s.listed {
		s.listed = true
		shelf.slots = append(shelf.slots, s)
	}
	shelf.Unlock()
	shelf.sweep.Do(armSweep)
}

// sweepTicket is the object whose finalizer runs sweepShelf once per
// collection: each sweep arms a new one.
type sweepTicket struct{ _ *byte }

func armSweep() { runtime.SetFinalizer(&sweepTicket{}, sweepShelf) }

// sweepShelf drops every shelved state that two collections have passed
// and unlists the empty slots.
func sweepShelf(*sweepTicket) {
	shelf.Lock()
	now := gcCount()
	kept := shelf.slots[:0]
	for _, s := range shelf.slots {
		if s.w != nil && now-s.gc < 2 {
			kept = append(kept, s)
			continue
		}
		s.w, s.listed = nil, false
	}
	clear(shelf.slots[len(kept):])
	shelf.slots = kept
	shelf.Unlock()
	armSweep()
}
