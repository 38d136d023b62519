package mem

import (
	"container/heap"
	"math/rand"
	"testing"
)

func TestCSRZeroValue(t *testing.T) {
	var c CSR[int]
	if c.Rows() != 0 {
		t.Fatalf("zero CSR Rows() = %d, want 0", c.Rows())
	}
}

func TestArenaAllocIsPrivateAndCapped(t *testing.T) {
	a := NewArena[int](8)
	s1 := a.Alloc(3)
	s2 := a.Alloc(3)
	if cap(s1) != 3 || cap(s2) != 3 {
		t.Fatalf("caps = %d, %d, want 3, 3 (appends must not bleed into neighbours)", cap(s1), cap(s2))
	}
	for i := range s1 {
		if s1[i] != 0 {
			t.Fatalf("Alloc not zeroed: %v", s1)
		}
		s1[i] = 7
	}
	// s2 comes from the same block directly after s1; writing s1 must not
	// have touched it, and appending to s1 must reallocate, not overwrite s2.
	for i := range s2 {
		if s2[i] != 0 {
			t.Fatalf("neighbouring allocation corrupted: %v", s2)
		}
	}
	s1 = append(s1, 9)
	if s2[0] != 0 {
		t.Fatalf("append to s1 bled into s2: %v", s2)
	}
	_ = s1
}

func TestArenaAllocBiggerThanBlock(t *testing.T) {
	a := NewArena[byte](4)
	s := a.Alloc(100)
	if len(s) != 100 || cap(s) != 100 {
		t.Fatalf("len/cap = %d/%d, want 100/100", len(s), cap(s))
	}
	// The arena must still be usable afterwards.
	if got := a.Alloc(2); len(got) != 2 {
		t.Fatalf("Alloc after oversized request failed: len %d", len(got))
	}
}

func TestArenaZeroValueUsable(t *testing.T) {
	var a Arena[int]
	if got := a.Alloc(5); len(got) != 5 {
		t.Fatalf("zero-value arena Alloc len = %d, want 5", len(got))
	}
}

func TestArenaCopyPreservesNilness(t *testing.T) {
	a := NewArena[int](0)
	if got := a.Copy(nil); got != nil {
		t.Fatalf("Copy(nil) = %v, want nil", got)
	}
	if got := a.Copy([]int{}); got == nil || len(got) != 0 {
		t.Fatalf("Copy(empty) = %v, want non-nil empty", got)
	}
	src := []int{1, 2, 3}
	dst := a.Copy(src)
	dst[0] = 99
	if src[0] != 1 {
		t.Fatalf("Copy aliases its source: src = %v", src)
	}
}

func TestArenaSlicesSurviveLaterAllocs(t *testing.T) {
	a := NewArena[int](4)
	kept := a.Copy([]int{1, 2, 3})
	for i := 0; i < 100; i++ {
		s := a.Alloc(3)
		s[0], s[1], s[2] = -1, -1, -1
	}
	if kept[0] != 1 || kept[1] != 2 || kept[2] != 3 {
		t.Fatalf("earlier slice clobbered by later allocations: %v", kept)
	}
}

func TestMarks(t *testing.T) {
	m := NewMarks(10)
	if m.Len() != 10 {
		t.Fatalf("Len() = %d, want 10", m.Len())
	}
	m.Set(3)
	m.Set(7)
	if !m.Has(3) || !m.Has(7) || m.Has(0) {
		t.Fatal("Set/Has disagree")
	}
	m.Reset()
	if m.Has(3) || m.Has(7) {
		t.Fatal("Reset did not clear the set")
	}
	m.Set(3)
	if !m.Has(3) {
		t.Fatal("Set after Reset lost")
	}
}

func TestMarksEpochWrap(t *testing.T) {
	m := NewMarks(4)
	m.Set(1)
	m.cur = ^uint32(0) // force the next Reset to wrap
	m.Reset()
	if m.cur != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", m.cur)
	}
	// Stale stamps from before the wipe must not read as members.
	if m.Has(1) {
		t.Fatal("stale stamp visible after epoch wrap")
	}
	m.Set(2)
	if !m.Has(2) {
		t.Fatal("Set after wrap lost")
	}
}

// refHeap is container/heap's view of a Heap's entries.
type refHeap []Item[int]

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].D < h[j].D }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(Item[int])) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestHeapMatchesContainerHeap drives Heap and container/heap with the same
// pushes and pops, many keys equal, and requires the same item out of every
// pop: the Dijkstras on Heap keep container/heap's tie order.
func TestHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var h Heap[int]
	ref := &refHeap{}
	for step := 0; step < 20000; step++ {
		if ref.Len() == 0 || rng.Intn(3) > 0 {
			it := Item[int]{step, float64(rng.Intn(16))}
			h.Push(it.V, it.D)
			heap.Push(ref, it)
			continue
		}
		if got, want := h.Pop(), heap.Pop(ref).(Item[int]); got != want {
			t.Fatalf("step %d: pop %v, container/heap %v", step, got, want)
		}
	}
}
