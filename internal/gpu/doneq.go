package gpu

// doneQ is a min-heap of completion cycles used to track MSHR occupancy
// without scanning the in-flight maps: the heap answers "when does the
// earliest outstanding fill complete" in O(log n). It holds bare cycles,
// so its pop sequence is fixed by its contents.
type doneQ struct {
	minHeap[uint64, struct{}]
}

func (q *doneQ) push(c uint64) { q.minHeap.push(c, struct{}{}) }

func (q *doneQ) pop() uint64 {
	c, _ := q.minHeap.pop()
	return c
}

func (q *doneQ) min() uint64 { return q.keys[0] }

// drain pops all completions at or before cycle now and returns how many
// were retired.
func (q *doneQ) drain(now uint64) int {
	n := 0
	for len(q.keys) > 0 && q.keys[0] <= now {
		q.pop()
		n++
	}
	return n
}

// fifo is a first-in-first-out queue of int32 ids that fronts its backing
// array with an index instead of re-slicing. Popping via items = items[1:]
// permanently discards the popped element's capacity, so a queue cycling
// millions of ids (the RT unit's ready list) re-grows its array for the
// whole run; the index front lets the array be recycled once drained.
type fifo struct {
	items []int32
	head  int
}

func (q *fifo) push(v int32) { q.items = append(q.items, v) }

func (q *fifo) pop() int32 {
	v := q.items[q.head]
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}

func (q *fifo) len() int { return len(q.items) - q.head }

func (q *fifo) reset() {
	q.items = q.items[:0]
	q.head = 0
}
