package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestEventHeapPopsInTimeSeqOrder drives random interleaved pushes and
// pops, most of them on a handful of equal times, and checks every pop
// against a sorted slice of the pending events.
func TestEventHeapPopsInTimeSeqOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 50; trial++ {
		var h eventHeap
		var ref []event
		var seq uint64
		for op := 0; op < 2000; op++ {
			if len(ref) == 0 || rng.Intn(5) < 3 {
				seq++
				ev := event{time: int64(rng.Intn(8)), seq: seq}
				h.push(ev)
				i := sort.Search(len(ref), func(i int) bool { return ev.before(&ref[i]) })
				ref = slices.Insert(ref, i, ev)
				continue
			}
			got, want := h.pop(), ref[0]
			ref = ref[1:]
			if got.time != want.time || got.seq != want.seq {
				t.Fatalf("trial %d op %d: popped (%d, %d), want (%d, %d)", trial, op, got.time, got.seq, want.time, want.seq)
			}
			if len(h) != len(ref) {
				t.Fatalf("trial %d op %d: heap holds %d, want %d", trial, op, len(h), len(ref))
			}
		}
	}
}
