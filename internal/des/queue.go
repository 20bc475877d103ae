package des

// Entry is one value-typed element of a Queue, ordered by (Key, Seq). The
// queue only reads Key and Seq; the other fields are payload for the owner:
// the Simulator stores its instant in Key and fills every field, the
// contention Monte-Carlo packs (slot, kind) into Key and a transaction index
// into Actor. Entries hold no pointers, so queues never need clearing for the
// garbage collector.
type Entry struct {
	Key   int64
	Seq   uint64
	Slot  int32
	Kind  int32
	Actor int32
	Arg   int64
}

// before is the queue order: (Key, Seq).
func (e *Entry) before(o *Entry) bool {
	if e.Key != o.Key {
		return e.Key < o.Key
	}
	return e.Seq < o.Seq
}

// Queue is the two-band min-priority queue shared by the Simulator and the
// contention Monte-Carlo.
//
// The far band is a sorted run consumed from its head: a Push at or after
// its tail appends in O(1), and a pre-drawn batch is bulk-loaded with Load
// and ordered once by Sort. Everything else sifts into the near band, a flat
// 4-ary min-heap. Pop compares the near root against the far head under the
// same (Key, Seq) order and takes the global minimum, so the pop sequence is
// exactly a single heap's, entry for entry — the split is purely a cost
// optimization and can never reorder a run.
//
// Seq must grow with every Push and Load (a monotone counter): the far band
// is then in Seq order as well as sorted, which is what keeps appends and
// the stable Sort consistent with the (Key, Seq) order.
type Queue struct {
	near []Entry // 4-ary min-heap; also Sort's scratch while empty
	far  []Entry // sorted run, consumed from head
	head int
}

// Len reports the number of queued entries across both bands.
func (q *Queue) Len() int { return len(q.near) + len(q.far) - q.head }

// FarLen reports the number of entries in the far band.
func (q *Queue) FarLen() int { return len(q.far) - q.head }

// Reset empties the queue, keeping both bands' storage for reuse.
func (q *Queue) Reset() {
	q.near = q.near[:0]
	q.far = q.far[:0]
	q.head = 0
}

// Push inserts e: at or after the far tail it extends the sorted run,
// anything earlier sifts into the near heap.
func (q *Queue) Push(e Entry) {
	if n := len(q.far); n > q.head && e.before(&q.far[n-1]) {
		q.pushNear(e)
		return
	}
	if q.head == len(q.far) {
		q.far = q.far[:0]
		q.head = 0
	}
	q.far = append(q.far, e)
}

// Load appends e to the far band without keeping it sorted: the bulk entry
// for a pre-drawn batch. A run of Loads must be followed by Sort before the
// next Push, Min or Pop.
func (q *Queue) Load(e Entry) { q.far = append(q.far, e) }

// Sort orders the far band after a run of Loads: a stable LSD radix sort on
// Key, one 8-bit digit per pass, skipping digits no key varies in. Equal keys
// keep their load (Seq) order. The near heap must be empty: its storage is
// the sort's scratch, so a recycled queue retains no extra memory.
func (q *Queue) Sort() {
	run := q.far[q.head:]
	if len(run) < 2 {
		return
	}
	if len(q.near) != 0 {
		panic("des: Queue.Sort with a non-empty near heap")
	}
	const sign = 1 << 63 // flipped so signed keys order as unsigned digits
	var varying uint64
	for i := range run {
		varying |= uint64(run[i].Key ^ run[0].Key)
	}
	if varying == 0 {
		return
	}
	scratch := q.near[:0]
	if cap(scratch) < len(run) {
		scratch = make([]Entry, 0, len(run))
	}
	src, dst := run, scratch[:len(run)]
	for shift := uint(0); varying>>shift != 0; shift += 8 {
		if (varying>>shift)&0xff == 0 {
			continue
		}
		var count [256]int
		for i := range src {
			count[byte((uint64(src[i].Key)^sign)>>shift)]++
		}
		pos := 0
		for d, c := range count {
			count[d] = pos
			pos += c
		}
		for i := range src {
			d := byte((uint64(src[i].Key) ^ sign) >> shift)
			dst[count[d]] = src[i]
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] == &run[0] {
		q.near = dst[:0]
		return
	}
	// The sorted run ended in the scratch: swap the two arrays rather than
	// copy back.
	q.far, q.near, q.head = src, q.far[:0], 0
}

// Min returns the globally earliest entry, or nil when the queue is empty.
// The pointer is valid until the next Push, Pop or Sort.
func (q *Queue) Min() *Entry {
	if q.farFirst() {
		return &q.far[q.head]
	}
	if len(q.near) > 0 {
		return &q.near[0]
	}
	return nil
}

// Pop removes and returns the globally earliest entry; ok is false when the
// queue is empty.
func (q *Queue) Pop() (e Entry, ok bool) {
	if !q.farFirst() {
		return q.popNear()
	}
	e = q.far[q.head]
	q.head++
	if q.head == len(q.far) {
		q.far = q.far[:0]
		q.head = 0
	}
	return e, true
}

// farFirst reports whether the next entry is the far head: the far band is
// non-empty and the near heap is empty or ordered after it.
func (q *Queue) farFirst() bool {
	if q.head >= len(q.far) {
		return false
	}
	return len(q.near) == 0 || q.far[q.head].before(&q.near[0])
}

// ---- flat 4-ary min-heap ----
//
// A 4-ary layout halves the tree depth of a binary heap; with value-typed
// entries the four-child comparison loop stays in one or two cache lines, so
// pops touch fewer lines than a deeper binary sift would.

// pushNear sifts e into the heap.
func (q *Queue) pushNear(e Entry) {
	q.near = append(q.near, e)
	h := q.near
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// popNear removes and returns the heap minimum; ok is false when the heap
// is empty.
func (q *Queue) popNear() (e Entry, ok bool) {
	h := q.near
	n := len(h) - 1
	if n < 0 {
		return Entry{}, false
	}
	e = h[0]
	if n > 0 {
		h[0] = h[n]
	}
	q.near = h[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return e, true
}

func (q *Queue) siftDown(i int) {
	h := q.near
	n := len(h)
	e := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(&h[best]) {
				best = c
			}
		}
		if !h[best].before(&e) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = e
}
