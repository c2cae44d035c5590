package sim

import (
	"fmt"
	"sort"
	"testing"
)

// checkIdxHeap reports whether h holds the heap property and pos agrees with
// the backing array in both directions: every entry's slot points back at
// it, and no other slot claims a position.
func checkIdxHeap[T int32 | int64](h *idxHeap[T]) error {
	for i, x := range h.a {
		if int(h.pos[x.slot]) != i {
			return fmt.Errorf("pos[%d] = %d, but its entry sits at %d", x.slot, h.pos[x.slot], i)
		}
		if i > 0 && x.less(h.a[(i-1)/2]) {
			return fmt.Errorf("heap order violated at %d: %+v under parent %+v", i, x, h.a[(i-1)/2])
		}
	}
	live := 0
	for slot, p := range h.pos {
		if p < 0 {
			continue
		}
		live++
		if int(p) >= len(h.a) || h.a[p].slot != int32(slot) {
			return fmt.Errorf("pos[%d] = %d does not point at its entry", slot, p)
		}
	}
	if live != len(h.a) {
		return fmt.Errorf("%d slots claim a position, heap holds %d entries", live, len(h.a))
	}
	return nil
}

func TestIdxHeapPopsInOrder(t *testing.T) {
	var h idxHeap[int64]
	rng := NewRNG(21)
	var want []idxEntry[int64]
	for i := 0; i < 500; i++ {
		x := idxEntry[int64]{key: float64(rng.Uint64() % 64), tie: int64(rng.Uint64()>>1) + int64(i), slot: int32(i)}
		h.push(x)
		want = append(want, x)
	}
	if err := checkIdxHeap(&h); err != nil {
		t.Fatal(err)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].less(want[j]) })
	for i, w := range want {
		if h.len() != len(want)-i {
			t.Fatalf("len = %d at pop %d", h.len(), i)
		}
		if got := h.peek(); got != w {
			t.Fatalf("peek %d = %+v, want %+v", i, got, w)
		}
		if got := h.pop(); got != w {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
	}
	if h.len() != 0 {
		t.Fatalf("heap not drained: %d left", h.len())
	}
	if err := checkIdxHeap(&h); err != nil {
		t.Fatal(err)
	}
}

// TestIdxHeapMatchesSortedReference drives random push/fix/remove/pop
// sequences against a sorted slice and checks every peek and pop, plus the
// position index after every operation. Keys are drawn from a handful of
// values, so exact key ties are the common case and only the tie field fixes
// the order. Both instantiations run: int32 with tie = slot (completion and
// cluster queues) and int64 with a sequence tie unrelated to the slot (timer
// queue, whose slots are recycled).
func TestIdxHeapMatchesSortedReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("int32/seed=%d", seed), func(t *testing.T) {
			runIdxHeapReference(t, seed, func(slot int32, _ int64) int32 { return slot })
		})
		t.Run(fmt.Sprintf("int64/seed=%d", seed), func(t *testing.T) {
			runIdxHeapReference(t, seed, func(_ int32, seq int64) int64 { return seq })
		})
	}
}

func runIdxHeapReference[T int32 | int64](t *testing.T, seed uint64, tieOf func(slot int32, seq int64) T) {
	const slots = 40
	rng := NewRNG(seed)
	var h idxHeap[T]
	var ref []idxEntry[T] // kept sorted
	var seq int64
	find := func(slot int32) int {
		for i, x := range ref {
			if x.slot == slot {
				return i
			}
		}
		return -1
	}
	insert := func(x idxEntry[T]) {
		i := sort.Search(len(ref), func(i int) bool { return x.less(ref[i]) })
		ref = append(ref, idxEntry[T]{})
		copy(ref[i+1:], ref[i:])
		ref[i] = x
	}
	entry := func(slot int32) idxEntry[T] {
		seq++
		return idxEntry[T]{key: float64(rng.Uint64() % 6), tie: tieOf(slot, seq), slot: slot}
	}
	for op := 0; op < 3000; op++ {
		slot := int32(rng.Uint64() % slots)
		switch i := find(slot); {
		case rng.Uint64()%4 == 0 && len(ref) > 0:
			want := ref[0]
			if got := h.peek(); got != want {
				t.Fatalf("op %d: peek = %+v, want %+v", op, got, want)
			}
			if got := h.pop(); got != want {
				t.Fatalf("op %d: pop = %+v, want %+v", op, got, want)
			}
			ref = ref[1:]
		case i < 0:
			x := entry(slot)
			h.push(x)
			insert(x)
		case rng.Uint64()%2 == 0:
			x := entry(slot)
			h.fix(x)
			ref = append(ref[:i], ref[i+1:]...)
			insert(x)
		default:
			h.remove(slot)
			ref = append(ref[:i], ref[i+1:]...)
		}
		if err := checkIdxHeap(&h); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if h.len() != len(ref) {
			t.Fatalf("op %d: len = %d, want %d", op, h.len(), len(ref))
		}
		for s := int32(0); s < slots; s++ {
			if h.has(s) != (find(s) >= 0) {
				t.Fatalf("op %d: has(%d) = %v, reference disagrees", op, s, h.has(s))
			}
		}
	}
	for len(ref) > 0 {
		if got := h.pop(); got != ref[0] {
			t.Fatalf("drain: pop = %+v, want %+v", got, ref[0])
		}
		ref = ref[1:]
		if err := checkIdxHeap(&h); err != nil {
			t.Fatal(err)
		}
	}
}
