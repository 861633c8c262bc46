package native

// taskQueue is a FIFO of native task records (intrusive doubly-linked),
// mirroring the simulator scheduler's queue structure: an array of
// task-affinity queues whose non-empty members are linked in a
// doubly-linked list, plus the plain queue (a worker's own plain spawns
// go onto the lock-free chaseLev deque in deque.go instead). All access
// is guarded by the owning worker's mutex.
type taskQueue struct {
	head, tail *task
	size       int

	// Links in the worker's non-empty list (task-affinity queues only).
	nextQ, prevQ *taskQueue
	inList       bool
	slotIdx      int
}

func (q *taskQueue) empty() bool { return q.head == nil }

// push appends t.
func (q *taskQueue) push(t *task) {
	if t.q != nil {
		panic("native: task already queued")
	}
	t.q = q
	t.prev = q.tail
	t.next = nil
	if q.tail != nil {
		q.tail.next = t
	} else {
		q.head = t
	}
	q.tail = t
	q.size++
}

// pop removes and returns the head, or nil.
func (q *taskQueue) pop() *task {
	t := q.head
	if t == nil {
		return nil
	}
	q.remove(t)
	return t
}

// remove unlinks t from the queue.
func (q *taskQueue) remove(t *task) {
	if t.q != q {
		panic("native: removing task from wrong queue")
	}
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		q.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		q.tail = t.prev
	}
	t.next, t.prev, t.q = nil, nil, nil
	q.size--
}

// popMatching removes and returns the first task with affObj == obj, or nil.
func (q *taskQueue) popMatching(obj int64) *task {
	for t := q.head; t != nil; t = t.next {
		if t.affObj == obj {
			q.remove(t)
			return t
		}
	}
	return nil
}

// nonEmptyList is the doubly-linked list of non-empty task-affinity
// queues within one worker (paper, Section 5).
type nonEmptyList struct {
	head, tail *taskQueue
}

func (l *nonEmptyList) add(q *taskQueue) {
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

func (l *nonEmptyList) removeQ(q *taskQueue) {
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
