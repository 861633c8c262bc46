package harness

import (
	"slices"
	"sync"
)

// Memo is a bounded, concurrency-safe memo of values keyed by a
// comparable key — the applications' reference results and generated
// inputs, each a pure function of a size or of the Params that costs
// more to build than the run it checks or feeds. It holds the values of
// the Cap most recently first-seen keys, oldest first, and evicts the
// oldest when a new key arrives at capacity. A value is shared by every
// caller, so it must be read-only once built.
type Memo[K comparable, V any] struct {
	Cap int

	mu      sync.Mutex
	entries []entry[K, V]
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// Get returns key's value, calling build under the memo's lock on the
// first request (so concurrent first requests build once).
func (m *Memo[K, V]) Get(key K, build func() V) V {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.entries {
		if e.key == key {
			return e.val
		}
	}
	if len(m.entries) == m.Cap {
		m.entries = append(m.entries[:0], m.entries[1:]...)
	}
	v := build()
	m.entries = append(m.entries, entry[K, V]{key, v})
	return v
}

// Keys returns the held keys, oldest first.
func (m *Memo[K, V]) Keys() []K {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]K, len(m.entries))
	for i, e := range m.entries {
		keys[i] = e.key
	}
	return keys
}

// Reset empties the memo.
func (m *Memo[K, V]) Reset() {
	m.mu.Lock()
	m.entries = nil
	m.mu.Unlock()
}

// Stash is a bounded, concurrency-safe store of per-job host scratch
// keyed by an application's Params: the records, slices and bound task
// bodies a job's Build makes once for its size. Build takes a value an
// earlier job of equal Params put back, Finish puts it back, and a job
// that fails before Finish simply drops its value. Unlike a Memo's,
// a stashed value belongs to one job at a time: Take removes it, so two
// runtimes running equal Params at once each get their own. The stash
// holds at most Cap values, dropping the oldest.
type Stash[K comparable, V any] struct {
	Cap int

	mu      sync.Mutex
	entries []entry[K, V]
}

// Take removes and returns the most recently put value of key; ok is
// false when there is none.
func (s *Stash[K, V]) Take(key K) (v V, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.entries) - 1; i >= 0; i-- {
		if s.entries[i].key == key {
			v = s.entries[i].val
			s.entries = slices.Delete(s.entries, i, i+1)
			return v, true
		}
	}
	return v, false
}

// Put stashes v under key, dropping the oldest value at capacity.
func (s *Stash[K, V]) Put(key K, v V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) == s.Cap {
		s.entries = slices.Delete(s.entries, 0, 1)
	}
	s.entries = append(s.entries, entry[K, V]{key, v})
}
