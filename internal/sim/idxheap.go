package sim

// idxHeap is a position-indexed binary min-heap: the single priority queue
// behind the completion queue, the timer queue and the cluster event heap.
//
// Every entry belongs to a dense int32 slot (a thread id, a timer-arena
// index, an engine index) and pos[slot] records where that slot's entry sits
// in the backing array, or -1 when it has none. That index is what makes
// removal and re-keying eager: remove(slot) and fix(x) find the entry in
// O(1) and restore order in O(log n), so the heap only ever holds live
// entries and no caller keeps stale-entry bookkeeping.
//
// Entries are ordered by (key, tie). Each caller's tie is unique among its
// live entries and no key is NaN (the engine rejects non-finite durations),
// so the order is total and the pop sequence depends only on the set of live
// entries, never on the heap's internal layout. The heap is
// generic over the tie's integer type rather than over an ordering method,
// so comparisons compile to inline float and integer compares; a method
// constraint would cost an indirect call per comparison.
type idxHeap[T int32 | int64] struct {
	a   []idxEntry[T]
	pos []int32
}

// idxEntry is one heap entry. It holds no pointer, so the backing array is
// never scanned by the garbage collector; with an int32 tie it is 16 bytes.
type idxEntry[T int32 | int64] struct {
	key  float64
	tie  T
	slot int32
}

func (a idxEntry[T]) less(b idxEntry[T]) bool {
	return a.key < b.key || a.key == b.key && a.tie < b.tie
}

func (h *idxHeap[T]) len() int { return len(h.a) }

// has reports whether slot currently has an entry in the heap.
func (h *idxHeap[T]) has(slot int32) bool {
	return int(slot) < len(h.pos) && h.pos[slot] >= 0
}

// peek returns the minimum entry. It must not be called on an empty heap.
func (h *idxHeap[T]) peek() idxEntry[T] { return h.a[0] }

// push inserts x. Its slot must not already have an entry.
func (h *idxHeap[T]) push(x idxEntry[T]) {
	for int(x.slot) >= len(h.pos) {
		h.pos = append(h.pos, -1)
	}
	h.a = append(h.a, x)
	h.up(len(h.a)-1, x)
}

// pop removes and returns the minimum entry. It must not be called on an
// empty heap.
func (h *idxHeap[T]) pop() idxEntry[T] {
	top := h.a[0]
	h.pos[top.slot] = -1
	last := len(h.a) - 1
	x := h.a[last]
	h.a = h.a[:last]
	if last > 0 {
		h.down(0, x)
	}
	return top
}

// fix replaces the entry of x.slot, which must be present, with x and
// restores heap order.
func (h *idxHeap[T]) fix(x idxEntry[T]) {
	h.sift(int(h.pos[x.slot]), x)
}

// remove deletes the entry of slot, which must be present.
func (h *idxHeap[T]) remove(slot int32) {
	i := int(h.pos[slot])
	h.pos[slot] = -1
	last := len(h.a) - 1
	x := h.a[last]
	h.a = h.a[:last]
	if i < last {
		h.sift(i, x)
	}
}

// sift places x at the hole i, moving the hole whichever way order demands.
func (h *idxHeap[T]) sift(i int, x idxEntry[T]) {
	if i > 0 && x.less(h.a[(i-1)/2]) {
		h.up(i, x)
	} else {
		h.down(i, x)
	}
}

// up places x at the hole i, moving the hole toward the root past every
// parent that x must precede.
func (h *idxHeap[T]) up(i int, x idxEntry[T]) {
	for i > 0 {
		p := (i - 1) / 2
		if !x.less(h.a[p]) {
			break
		}
		h.a[i] = h.a[p]
		h.pos[h.a[i].slot] = int32(i)
		i = p
	}
	h.a[i] = x
	h.pos[x.slot] = int32(i)
}

// down places x at the hole i, moving the hole toward the leaves past every
// child that must precede x.
func (h *idxHeap[T]) down(i int, x idxEntry[T]) {
	n := len(h.a)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.a[r].less(h.a[c]) {
			c = r
		}
		if !h.a[c].less(x) {
			break
		}
		h.a[i] = h.a[c]
		h.pos[h.a[i].slot] = int32(i)
		i = c
	}
	h.a[i] = x
	h.pos[x.slot] = int32(i)
}
