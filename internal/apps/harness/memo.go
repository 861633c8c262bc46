package harness

import "sync"

// Memo is a bounded, concurrency-safe memo of values keyed by an int —
// the applications' reference results, each a pure function of a size
// that costs more to build than the run it checks. It holds the values
// of the Cap most recently first-seen keys, oldest first, and evicts the
// oldest when a new key arrives at capacity.
type Memo[V any] struct {
	Cap int

	mu      sync.Mutex
	entries []memoEntry[V]
}

type memoEntry[V any] struct {
	key int
	val V
}

// Get returns key's value, calling build under the memo's lock on the
// first request (so concurrent first requests build once).
func (m *Memo[V]) Get(key int, build func() V) V {
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
	m.entries = append(m.entries, memoEntry[V]{key, v})
	return v
}

// Keys returns the held keys, oldest first.
func (m *Memo[V]) Keys() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]int, len(m.entries))
	for i, e := range m.entries {
		keys[i] = e.key
	}
	return keys
}

// Reset empties the memo.
func (m *Memo[V]) Reset() {
	m.mu.Lock()
	m.entries = nil
	m.mu.Unlock()
}
