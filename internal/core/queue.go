package core

// This file is the per-server queue structure of the paper (§5), shared
// by both engines: a plain queue plus an array of task-affinity queues,
// hashed by Topo.SlotOf, whose non-empty members are linked in a list so
// "find some work" is O(1), and a current queue drained back to back.
// The simulator's Scheduler instantiates it with TaskDesc, the native
// runtime with its pooled task record. Each engine keeps the rest of its
// server state (resume queue, deque, locks, hints) around it.
//
// The intrusive links live in Link, a generic struct the record embeds.
// Every operation here reads only Link fields, at fixed offsets, and each
// record type is its own GC shape, so each instantiation is stenciled and
// the small queue operations inline — no dictionary call per link.

// Link is the intrusive queue node a task record embeds, plus the
// placement fields the queue logic reads. Item points back at the
// embedding record; whoever makes the record sets it.
type Link[E any] struct {
	next, prev *Link[E]
	q          *Queue[E]

	Item   *E
	Class  Class
	Slot   int   // task-affinity queue index, -1 for the plain queue
	AffObj int64 // address identifying the task-affinity set (0 if none)
}

// Queue is a FIFO of task records, doubly linked through their Links.
// A task-affinity queue also sits in its server's non-empty list.
type Queue[E any] struct {
	head, tail *Link[E]
	size       int

	nextQ, prevQ *Queue[E]
	inList       bool
}

// Len returns the number of queued records.
func (q *Queue[E]) Len() int { return q.size }

func (q *Queue[E]) empty() bool { return q.head == nil }

// push appends l.
func (q *Queue[E]) push(l *Link[E]) {
	if l.q != nil {
		panic("core: task already queued")
	}
	l.q = q
	l.prev = q.tail
	l.next = nil
	if q.tail != nil {
		q.tail.next = l
	} else {
		q.head = l
	}
	q.tail = l
	q.size++
}

// pop removes and returns the head's record, or nil.
func (q *Queue[E]) pop() *E {
	l := q.head
	if l == nil {
		return nil
	}
	q.remove(l)
	return l.Item
}

// remove unlinks l from the queue.
func (q *Queue[E]) remove(l *Link[E]) {
	if l.q != q {
		panic("core: removing task from wrong queue")
	}
	if l.prev != nil {
		l.prev.next = l.next
	} else {
		q.head = l.next
	}
	if l.next != nil {
		l.next.prev = l.prev
	} else {
		q.tail = l.prev
	}
	l.next, l.prev, l.q = nil, nil, nil
	q.size--
}

// QueueArray is one server's queues: the task-affinity slots, the list
// of the non-empty ones, the slot being drained back to back (Cur) and
// the plain queue, which holds processor-affinity and no-hint records.
type QueueArray[E any] struct {
	Slots []Queue[E]
	Plain Queue[E]
	Cur   *Queue[E]

	nonEmpty struct{ head, tail *Queue[E] }
}

// Init sizes the slot array.
func (a *QueueArray[E]) Init(slots int) { a.Slots = make([]Queue[E], slots) }

// Reset empties every queue, keeping the slot array. The records a
// failed run left queued are dropped, not unlinked: their owner must not
// reuse them.
func (a *QueueArray[E]) Reset() {
	clear(a.Slots)
	*a = QueueArray[E]{Slots: a.Slots}
}

// Push appends l to its slot's queue, or to the plain queue when it has
// no slot.
func (a *QueueArray[E]) Push(l *Link[E]) {
	q := &a.Plain
	if l.Slot >= 0 {
		if q = &a.Slots[l.Slot]; !q.inList {
			a.listAdd(q)
		}
	}
	q.push(l)
}

// Take removes the next record in the paper's dispatch order: the
// current slot back to back, then the first non-empty slot (which
// becomes current), then the plain queue.
func (a *QueueArray[E]) Take() *E {
	q := a.Cur
	if q == nil || q.empty() {
		a.Cur = nil
		if q = a.nonEmpty.head; q == nil {
			return a.Plain.pop()
		}
		a.Cur = q
	}
	e := q.pop()
	a.afterPop(q)
	return e
}

// afterPop unlists slot q once it is empty, and stops draining it.
func (a *QueueArray[E]) afterPop(q *Queue[E]) {
	if q.head == nil {
		a.listRemove(q)
		if a.Cur == q {
			a.Cur = nil
		}
	}
}

// HasSetHead reports whether some slot's head is a task-affinity set
// member — whether StealSet would move anything.
func (a *QueueArray[E]) HasSetHead() bool {
	for q := a.nonEmpty.head; q != nil; q = q.nextQ {
		if q.head.Class == ClassTaskSet {
			return true
		}
	}
	return false
}

// StealSet moves one whole task-affinity set to thief: every record of
// the first slot whose head is a set member that names the head's set
// object. It returns moved extended by those records in queue order; the
// first is the thief's to run, the rest are queued on the thief with
// their slot made current, so they run back to back after it.
func (a *QueueArray[E]) StealSet(thief *QueueArray[E], moved []*E) []*E {
	for q := a.nonEmpty.head; q != nil; q = q.nextQ {
		h := q.head
		if h.Class != ClassTaskSet {
			continue
		}
		obj, n := h.AffObj, len(moved)
		for l := h; l != nil; {
			next := l.next
			if l.AffObj == obj {
				q.remove(l)
				if len(moved) > n {
					thief.Push(l)
				}
				moved = append(moved, l.Item)
			}
			l = next
		}
		a.afterPop(q)
		if len(moved) > n+1 {
			thief.Cur = &thief.Slots[h.Slot]
		}
		return moved
	}
	return moved
}

// TakeUnpinned removes the first plain-queue record that is not pinned
// by processor affinity — the freely stealable plain work. The empty
// check inlines into the engines' steal probes.
func (a *QueueArray[E]) TakeUnpinned() *E {
	if a.Plain.head == nil {
		return nil
	}
	return a.takeUnpinned()
}

func (a *QueueArray[E]) takeUnpinned() *E {
	for l := a.Plain.head; l != nil; l = l.next {
		if l.Class != ClassProcessor {
			a.Plain.remove(l)
			return l.Item
		}
	}
	return nil
}

// TakePlainHead removes the plain queue's head if the reluctant-steal
// gate admits it from a victim with backlog queued tasks.
func (a *QueueArray[E]) TakePlainHead(p *Policy, backlog int) *E {
	if a.Plain.head == nil || !p.MayStealHead(a.Plain.head.Class, backlog) {
		return nil
	}
	return a.Plain.pop()
}

// TakeSlotHead removes the first slot head the reluctant-steal gate
// admits, in non-empty-list order. A task-affinity set member taken here
// is a split the caller counts. The policy comes by pointer: passed by
// value it is spilled a byte at a time and reloaded whole for every
// head, a store-forwarding stall that added about 15 ns to a failing
// steal probe.
func (a *QueueArray[E]) TakeSlotHead(p *Policy, backlog int) *E {
	for q := a.nonEmpty.head; q != nil; q = q.nextQ {
		if l := q.head; p.MayStealHead(l.Class, backlog) {
			q.remove(l)
			a.afterPop(q)
			return l.Item
		}
	}
	return nil
}

// Drain removes every record, appending them to out: the plain queue
// first, then each non-empty slot in list order.
func (a *QueueArray[E]) Drain(out []*E) []*E {
	for e := a.Plain.pop(); e != nil; e = a.Plain.pop() {
		out = append(out, e)
	}
	for q := a.nonEmpty.head; q != nil; q = a.nonEmpty.head {
		for e := q.pop(); e != nil; e = q.pop() {
			out = append(out, e)
		}
		a.listRemove(q)
	}
	a.Cur = nil
	return out
}

func (a *QueueArray[E]) listAdd(q *Queue[E]) {
	l := &a.nonEmpty
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

func (a *QueueArray[E]) listRemove(q *Queue[E]) {
	l := &a.nonEmpty
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
