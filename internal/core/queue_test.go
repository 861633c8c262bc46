package core

import (
	"math/rand"
	"testing"
)

// rec is a queue record for the tests and the benchmark: a second
// instantiation of the shared queue besides TaskDesc.
type rec struct {
	Link[rec]
	id int
}

func mkRecs(n int) []*rec {
	rs := make([]*rec, n)
	for i := range rs {
		rs[i] = &rec{id: i}
		rs[i].Item = rs[i]
		rs[i].AffObj = int64(i)
		rs[i].Slot = -1
	}
	return rs
}

// slotIndex returns q's index in a's slot array, or -1.
func slotIndex[E any](a *QueueArray[E], q *Queue[E]) int {
	for i := range a.Slots {
		if &a.Slots[i] == q {
			return i
		}
	}
	return -1
}

func TestTaskQueueFIFO(t *testing.T) {
	var q Queue[rec]
	rs := mkRecs(5)
	for _, r := range rs {
		q.push(&r.Link)
	}
	if q.Len() != 5 {
		t.Fatalf("size = %d", q.Len())
	}
	for i := 0; i < 5; i++ {
		r := q.pop()
		if r != rs[i] {
			t.Fatalf("pop %d returned wrong task", i)
		}
		if r.q != nil {
			t.Fatal("popped task still linked to queue")
		}
	}
	if q.pop() != nil || !q.empty() {
		t.Fatal("queue should be empty")
	}
}

func TestTaskQueueRemoveMiddle(t *testing.T) {
	var q Queue[rec]
	rs := mkRecs(3)
	for _, r := range rs {
		q.push(&r.Link)
	}
	q.remove(&rs[1].Link)
	if q.Len() != 2 {
		t.Fatalf("size = %d", q.Len())
	}
	if q.pop() != rs[0] || q.pop() != rs[2] {
		t.Fatal("wrong order after middle removal")
	}
}

func TestTaskQueueRemoveEnds(t *testing.T) {
	var q Queue[rec]
	rs := mkRecs(3)
	for _, r := range rs {
		q.push(&r.Link)
	}
	q.remove(&rs[0].Link)
	q.remove(&rs[2].Link)
	if q.head != &rs[1].Link || q.tail != &rs[1].Link || q.Len() != 1 {
		t.Fatal("removal of head and tail broke links")
	}
}

// TestPopMatching: a whole-set steal takes exactly the members naming
// the head's set object, in queue order, and leaves the rest queued.
func TestPopMatching(t *testing.T) {
	var v, thief QueueArray[rec]
	v.Init(4)
	thief.Init(4)
	rs := mkRecs(4)
	for i, obj := range []int64{100, 200, 100, 100} {
		rs[i].Class, rs[i].Slot, rs[i].AffObj = ClassTaskSet, 1, obj
		v.Push(&rs[i].Link)
	}
	moved := v.StealSet(&thief, nil)
	if len(moved) != 3 || moved[0] != rs[0] || moved[1] != rs[2] || moved[2] != rs[3] {
		t.Fatalf("moved %v, want the three members of set 100 in order", moved)
	}
	if thief.Cur != &thief.Slots[1] || thief.Take() != rs[2] || thief.Take() != rs[3] {
		t.Fatal("thief does not run the moved members back to back")
	}
	if got := v.StealSet(&thief, nil); len(got) != 1 || got[0] != rs[1] {
		t.Fatalf("second steal moved %v, want set 200", got)
	}
	if v.Take() != nil {
		t.Fatal("victim should be empty")
	}
}

func TestDoublePushPanics(t *testing.T) {
	var q Queue[rec]
	r := mkRecs(1)[0]
	q.push(&r.Link)
	defer func() {
		if recover() == nil {
			t.Fatal("double push did not panic")
		}
	}()
	q.push(&r.Link)
}

func TestNonEmptyListAddRemove(t *testing.T) {
	var a QueueArray[rec]
	a.Init(4)
	for i := range a.Slots {
		a.listAdd(&a.Slots[i])
	}
	count := 0
	for q := a.nonEmpty.head; q != nil; q = q.nextQ {
		count++
	}
	if count != 4 {
		t.Fatalf("list has %d queues, want 4", count)
	}
	a.listRemove(&a.Slots[1])
	a.listRemove(&a.Slots[3])
	var idx []int
	for q := a.nonEmpty.head; q != nil; q = q.nextQ {
		idx = append(idx, slotIndex(&a, q))
	}
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 2 {
		t.Fatalf("list after removals = %v", idx)
	}
	// Remove remaining; list must be empty and re-addable.
	a.listRemove(&a.Slots[0])
	a.listRemove(&a.Slots[2])
	if a.nonEmpty.head != nil || a.nonEmpty.tail != nil {
		t.Fatal("list not empty")
	}
	a.listAdd(&a.Slots[2])
	if a.nonEmpty.head != &a.Slots[2] || a.nonEmpty.tail != &a.Slots[2] {
		t.Fatal("re-add failed")
	}
}

// The oracle below is the concrete per-server queue structure both
// engines kept before it became QueueArray, with the engines' take,
// whole-set steal, reluctant scans and failover drain written against
// it as they were. TestQueueArrayMatchesOracle drives both with the
// same operations.

type oRec struct {
	id         int
	class      Class
	slot       int
	obj        int64
	next, prev *oRec
	q          *oQueue
}

type oQueue struct {
	head, tail   *oRec
	size         int
	nextQ, prevQ *oQueue
	inList       bool
}

func (q *oQueue) empty() bool { return q.head == nil }

func (q *oQueue) push(r *oRec) {
	r.q = q
	r.prev = q.tail
	r.next = nil
	if q.tail != nil {
		q.tail.next = r
	} else {
		q.head = r
	}
	q.tail = r
	q.size++
}

func (q *oQueue) pop() *oRec {
	r := q.head
	if r == nil {
		return nil
	}
	q.remove(r)
	return r
}

func (q *oQueue) remove(r *oRec) {
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		q.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		q.tail = r.prev
	}
	r.next, r.prev, r.q = nil, nil, nil
	q.size--
}

func (q *oQueue) popMatching(obj int64) *oRec {
	for r := q.head; r != nil; r = r.next {
		if r.obj == obj {
			q.remove(r)
			return r
		}
	}
	return nil
}

type oList struct{ head, tail *oQueue }

func (l *oList) add(q *oQueue) {
	if q.inList {
		return
	}
	q.inList = true
	q.prevQ = l.tail
	q.nextQ = nil
	if l.tail != nil {
		l.tail.nextQ = q
	} else {
		l.head = q
	}
	l.tail = q
}

func (l *oList) removeQ(q *oQueue) {
	if !q.inList {
		return
	}
	q.inList = false
	if q.prevQ != nil {
		q.prevQ.nextQ = q.nextQ
	} else {
		l.head = q.nextQ
	}
	if q.nextQ != nil {
		q.nextQ.prevQ = q.prevQ
	} else {
		l.tail = q.prevQ
	}
	q.nextQ, q.prevQ = nil, nil
}

type oServer struct {
	plain    oQueue
	slots    []oQueue
	nonEmpty oList
	cur      *oQueue
}

func (sv *oServer) push(r *oRec) {
	if r.slot >= 0 {
		q := &sv.slots[r.slot]
		q.push(r)
		sv.nonEmpty.add(q)
	} else {
		sv.plain.push(r)
	}
}

func (sv *oServer) afterSlotPop(q *oQueue) {
	if q.empty() {
		sv.nonEmpty.removeQ(q)
		if sv.cur == q {
			sv.cur = nil
		}
	}
}

func (sv *oServer) take() *oRec {
	if sv.cur != nil && !sv.cur.empty() {
		r := sv.cur.pop()
		sv.afterSlotPop(sv.cur)
		return r
	}
	sv.cur = nil
	if q := sv.nonEmpty.head; q != nil {
		r := q.pop()
		sv.afterSlotPop(q)
		if !q.empty() {
			sv.cur = q
		}
		return r
	}
	return sv.plain.pop()
}

func (sv *oServer) stealSet(thief *oServer) []*oRec {
	for q := sv.nonEmpty.head; q != nil; q = q.nextQ {
		head := q.head
		if head == nil || head.class != ClassTaskSet {
			continue
		}
		var moved []*oRec
		for r := q.popMatching(head.obj); r != nil; r = q.popMatching(head.obj) {
			moved = append(moved, r)
		}
		sv.afterSlotPop(q)
		for _, r := range moved[1:] {
			tq := &thief.slots[r.slot]
			tq.push(r)
			thief.nonEmpty.add(tq)
		}
		if len(moved) > 1 {
			thief.cur = &thief.slots[moved[0].slot]
		}
		return moved
	}
	return nil
}

func (sv *oServer) takeUnpinned() *oRec {
	for r := sv.plain.head; r != nil; r = r.next {
		if r.class != ClassProcessor {
			sv.plain.remove(r)
			return r
		}
	}
	return nil
}

func (sv *oServer) takePlainHead(p Policy, backlog int) *oRec {
	if r := sv.plain.head; r != nil && p.MayStealHead(r.class, backlog) {
		sv.plain.remove(r)
		return r
	}
	return nil
}

func (sv *oServer) takeSlotHead(p Policy, backlog int) *oRec {
	for q := sv.nonEmpty.head; q != nil; q = q.nextQ {
		head := q.head
		if head == nil || !p.MayStealHead(head.class, backlog) {
			continue
		}
		q.remove(head)
		sv.afterSlotPop(q)
		return head
	}
	return nil
}

func (sv *oServer) drain() []*oRec {
	var out []*oRec
	for r := sv.plain.pop(); r != nil; r = sv.plain.pop() {
		out = append(out, r)
	}
	for q := sv.nonEmpty.head; q != nil; q = sv.nonEmpty.head {
		for r := q.pop(); r != nil; r = q.pop() {
			out = append(out, r)
		}
		sv.nonEmpty.removeQ(q)
	}
	sv.cur = nil
	return out
}

func (sv *oServer) slotIndex(q *oQueue) int {
	for i := range sv.slots {
		if &sv.slots[i] == q {
			return i
		}
	}
	return -1
}

// TestQueueArrayMatchesOracle drives seeded random push, take,
// whole-set steal, unpinned plain take, gated head takes and failover
// drains on three servers of the shared QueueArray and of the oracle,
// checking every returned record, every queue size, the list order and
// the current slot after each operation.
func TestQueueArrayMatchesOracle(t *testing.T) {
	const servers, slots, objs = 3, 4, 6
	pols := []Policy{DefaultPolicy(), {StealWholeSets: false, StealObjectBound: true}, {StealWholeSets: true}}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var arr [servers]QueueArray[rec]
		var ora [servers]oServer
		for i := range arr {
			arr[i].Init(slots)
			ora[i].slots = make([]oQueue, slots)
		}
		next := 0
		same := func(op string, got []*rec, want []*oRec) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("seed %d op %d %s: got %d records, oracle %d", seed, next, op, len(got), len(want))
			}
			for i := range got {
				if got[i].id != want[i].id {
					t.Fatalf("seed %d op %d %s: record %d is %d, oracle %d", seed, next, op, i, got[i].id, want[i].id)
				}
			}
		}
		one := func(r *rec) []*rec {
			if r == nil {
				return nil
			}
			return []*rec{r}
		}
		oneO := func(r *oRec) []*oRec {
			if r == nil {
				return nil
			}
			return []*oRec{r}
		}
		for op := 0; op < 3000; op++ {
			i, j := rng.Intn(servers), rng.Intn(servers)
			a, o := &arr[i], &ora[i]
			pol := pols[rng.Intn(len(pols))]
			backlog := a.Plain.Len()
			for s := range a.Slots {
				backlog += a.Slots[s].Len()
			}
			switch k := rng.Intn(20); {
			case k < 9: // push
				class := Class(rng.Intn(4))
				slot, obj := -1, int64(0)
				if class == ClassTaskSet || class == ClassObjectBound {
					n := rng.Intn(objs)
					slot, obj = n%slots, int64(64*(n+1))
				}
				r := &rec{id: next}
				r.Item, r.Class, r.Slot, r.AffObj = r, class, slot, obj
				a.Push(&r.Link)
				o.push(&oRec{id: next, class: class, slot: slot, obj: obj})
				next++
			case k < 13:
				same("take", one(a.Take()), oneO(o.take()))
			case k < 15:
				if i == j {
					continue
				}
				got, want := a.StealSet(&arr[j], nil), o.stealSet(&ora[j])
				same("stealSet", got, want)
			case k < 16:
				same("takeUnpinned", one(a.TakeUnpinned()), oneO(o.takeUnpinned()))
			case k < 17:
				same("takePlainHead", one(a.TakePlainHead(&pol, backlog)), oneO(o.takePlainHead(pol, backlog)))
			case k < 19:
				same("takeSlotHead", one(a.TakeSlotHead(&pol, backlog)), oneO(o.takeSlotHead(pol, backlog)))
			default:
				if rng.Intn(4) != 0 {
					continue
				}
				got, want := a.Drain(nil), o.drain()
				same("drain", got, want)
			}
			for s := 0; s < servers; s++ {
				checkSameShape(t, seed, op, &arr[s], &ora[s])
			}
		}
	}
}

// checkSameShape compares one server's queue sizes, non-empty list
// order and current slot with the oracle's.
func checkSameShape(t *testing.T, seed int64, op int, a *QueueArray[rec], o *oServer) {
	t.Helper()
	if a.Plain.Len() != o.plain.size {
		t.Fatalf("seed %d op %d: plain size %d, oracle %d", seed, op, a.Plain.Len(), o.plain.size)
	}
	for s := range a.Slots {
		if a.Slots[s].Len() != o.slots[s].size {
			t.Fatalf("seed %d op %d: slot %d size %d, oracle %d", seed, op, s, a.Slots[s].Len(), o.slots[s].size)
		}
	}
	q, oq := a.nonEmpty.head, o.nonEmpty.head
	for ; q != nil && oq != nil; q, oq = q.nextQ, oq.nextQ {
		if slotIndex(a, q) != o.slotIndex(oq) {
			t.Fatalf("seed %d op %d: non-empty list order differs", seed, op)
		}
	}
	if q != nil || oq != nil {
		t.Fatalf("seed %d op %d: non-empty list lengths differ", seed, op)
	}
	if got, want := slotIndex(a, a.Cur), o.slotIndex(o.cur); got != want {
		t.Fatalf("seed %d op %d: current slot %d, oracle %d", seed, op, got, want)
	}
}

// BenchmarkQueueArray is one server's queue structure under a
// dispatch-shaped load per op: 64 pushes over 8 task-affinity sets and
// the plain queue, 8 whole-set steals to a thief, and both servers
// drained through Take.
func BenchmarkQueueArray(b *testing.B) {
	var v, thief QueueArray[rec]
	v.Init(64)
	thief.Init(64)
	rs := mkRecs(64)
	for i, r := range rs {
		switch {
		case i%8 == 7:
			r.Class, r.Slot, r.AffObj = ClassPlain, -1, 0
		default:
			set := int64(i % 8)
			r.Class, r.Slot, r.AffObj = ClassTaskSet, int(set*5%64), 64*(set+1)
		}
	}
	moved := make([]*rec, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, r := range rs {
			v.Push(&r.Link)
		}
		for k := 0; k < 8; k++ {
			moved = v.StealSet(&thief, moved[:0])
		}
		for v.Take() != nil {
		}
		for thief.Take() != nil {
		}
	}
}
