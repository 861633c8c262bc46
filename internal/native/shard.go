package native

import (
	"sync"

	"github.com/coolrts/cool/internal/perfmon"
)

// numSetShards is the number of locks the task-affinity set table is
// split across. Like the per-server queue array, a suitably large shard
// count makes collisions (two hot sets behind one lock) unlikely; 64
// matches the default queue-array size.
const numSetShards = 64

// setShard is one slice of the task-affinity set table: the sets whose
// two-modulo hash lands on this shard, each mapped to the worker
// currently hosting it. The shard mutex is the only lock that makes a
// whole-set move atomic with respect to placements of further members —
// every insert of a set member validates the set's home under this lock,
// and every whole-set steal re-homes the set under it while holding the
// victim's queue lock (see DESIGN.md §10 for the full ordering
// protocol: worker locks in ascending id order first, then one shard).
type setShard struct {
	mu   sync.Mutex
	home map[int64]int

	// Pad to a cache line so neighbouring shard locks don't false-share.
	_ [64 - 16]byte
}

// lock acquires the shard, counting a missed TryLock fast path against
// the acting worker's row.
func (sh *setShard) lock(ctr *perfmon.Counters) {
	if sh.mu.TryLock() {
		return
	}
	ctr.LockContention++
	sh.mu.Lock()
}

// shardOf maps a task-affinity object to its shard, mixing line and
// page numbers with the same two-modulo hash as slotOf.
func (rt *Runtime) shardOf(addr int64) *setShard {
	h := addr>>6 + addr/rt.cfg.PageSize
	return &rt.shards[h%numSetShards]
}
