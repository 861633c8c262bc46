package serve

import "sync/atomic"

// Residency is one pool entry's prepared-state cache: the analyze-phase
// handles (apps.PrepareCatalog) of the spaces this runtime served most
// recently. It is the serving layer's version of the paper's cache
// affinity — a space's prepared state is resident on its home runtime,
// so running a job at home turns into avoided work, while a job stolen
// by another runtime repeats the analyze phase there. A miss still
// repeats that work, but into recycled storage: the handles a residency
// lets go of (Store's result) go back through apps.ReleasePrepared once
// their run is over, and the next miss refills one instead of
// allocating.
//
// Residency is deliberately scarce (small LRU capacity): if every
// runtime could hold every space, placement would not matter. Entries
// are keyed per space, never shared across spaces even when two
// tenants' workloads would coincide — a tenant's space is private, and
// the serving layer does not assume its contents from its shape.
//
// A thief's runner gets a borrowed view of the thief's residency: its
// probes count as hits or misses, but its Store does nothing, so a
// steal neither moves a space's home nor evicts the thief's own spaces
// (the paper's reluctant object-bound steal: the task runs away from
// home, its object stays put).
//
// Residency is owned by a single pool-entry goroutine; no locking. The
// hit/miss counters are atomics only so stats snapshots can read them
// from other goroutines.
type Residency struct {
	*spaces
	borrowed bool
}

// spaces is the cache an entry's Residency and its borrowed view share.
type spaces struct {
	cap    int
	items  map[spaceID]any
	order  []spaceID // LRU: oldest first, at most cap long
	hits   atomic.Int64
	misses atomic.Int64
}

// spaceID identifies one space's prepared state. The size preset is
// normalized ("" means "small") so the two spellings share state.
type spaceID struct{ key, app, size string }

func newResidency(capacity int) *Residency {
	return &Residency{spaces: &spaces{cap: capacity, items: make(map[spaceID]any, capacity), order: make([]spaceID, 0, capacity)}}
}

// borrow returns the view a thief's runner gets.
func (r *Residency) borrow() *Residency { return &Residency{spaces: r.spaces, borrowed: true} }

func idOf(j *Job) spaceID {
	size := j.Req.Size
	if size == "" {
		size = "small"
	}
	return spaceID{j.Req.Key, j.Req.App, size}
}

// Lookup finds the prepared state for a job's space and counts the
// probe as a hit or miss. Keyless jobs have no space to be resident.
func (r *Residency) Lookup(j *Job) (any, bool) {
	if r.cap <= 0 || j.Req.Key == "" {
		return nil, false
	}
	k := idOf(j)
	prep, ok := r.items[k]
	if ok {
		r.hits.Add(1)
		r.touch(k)
		return prep, true
	}
	r.misses.Add(1)
	return nil, false
}

// Store makes a space's prepared state resident, evicting the least
// recently served space when the cache is full, and returns the handle
// the cache let go of: the evicted space's, the space's previous one,
// or prep itself when it keeps nothing (a borrowed view, a keyless
// job, no capacity). The caller hands that back once no run reads it.
func (r *Residency) Store(j *Job, prep any) (dropped any) {
	if r.borrowed || r.cap <= 0 || j.Req.Key == "" || prep == nil {
		return prep
	}
	k := idOf(j)
	if old, ok := r.items[k]; ok {
		r.items[k] = prep
		r.touch(k)
		if old == prep {
			return nil
		}
		return old
	}
	if len(r.order) >= r.cap {
		dropped = r.items[r.order[0]]
		delete(r.items, r.order[0])
		copy(r.order, r.order[1:])
		r.order = r.order[:len(r.order)-1]
	}
	r.items[k] = prep
	r.order = append(r.order, k)
	return dropped
}

// touch moves k to the most recently served end, in place.
func (r *Residency) touch(k spaceID) {
	for i, o := range r.order {
		if o == k {
			copy(r.order[i:], r.order[i+1:])
			r.order[len(r.order)-1] = k
			return
		}
	}
}

// Hits and Misses report the probe counters (snapshot-safe).
func (r *Residency) Hits() int64   { return r.hits.Load() }
func (r *Residency) Misses() int64 { return r.misses.Load() }
