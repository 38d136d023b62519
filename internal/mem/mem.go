// Package mem provides the flat-memory building blocks of the million-node
// scale-out: a compressed-sparse-row (CSR) layout for adjacency-like data, a
// bump arena whose blocks are never reused (so returned slices are durable
// and private at amortized-zero allocation cost), epoch-stamped membership
// sets with O(1) clearing, and the typed binary heap every Dijkstra uses. Everything here is deliberately dumb:
// contiguous slices indexed by dense IDs, no pointers between elements, so a
// million-row structure is a handful of allocations instead of a million.
package mem

// CSR is a compressed-sparse-row table: row i is Dat[Off[i]:Off[i+1]].
// Off always has one more entry than there are rows. The zero value is an
// empty table.
type CSR[T any] struct {
	Off []int32
	Dat []T
}

// Rows returns the number of rows.
func (c *CSR[T]) Rows() int {
	if len(c.Off) == 0 {
		return 0
	}
	return len(c.Off) - 1
}

// Row returns row i as a subslice view of Dat; callers must not append.
func (c *CSR[T]) Row(i int) []T {
	return c.Dat[c.Off[i]:c.Off[i+1]]
}

// RowOf returns the row that holds position p of Dat, by binary search over
// the row bounds.
func (c *CSR[T]) RowOf(p int32) int32 {
	off := c.Off
	lo, hi := 0, len(off)-1 // off[lo] <= p < off[hi]
	for hi-lo > 1 {
		if m := int(uint(lo+hi) >> 1); off[m] <= p {
			lo = m
		} else {
			hi = m
		}
	}
	return int32(lo)
}

// arenaBlock is the default arena block size in elements. Big enough that a
// warm routing path amortizes its block allocations to a measured zero
// (testing.AllocsPerRun averages integer malloc counts over many runs), small
// enough that an idle arena holds no more than one block of slack.
const arenaBlock = 1 << 16

// Arena is a bump allocator over blocks that are never reused: a slice
// returned by Alloc or Copy stays valid and private forever, because the
// arena abandons a block once it is full (only the returned slices keep it
// alive, so dropped results are garbage-collected normally). That makes it
// safe to hand arena-backed slices to callers who retain or mutate them,
// while a hot path that allocates through the arena performs one real
// allocation per block instead of one per call.
type Arena[T any] struct {
	cur  []T
	size int
}

// NewArena returns an arena with the given block size in elements
// (<= 0 means the default).
func NewArena[T any](blockSize int) *Arena[T] {
	if blockSize <= 0 {
		blockSize = arenaBlock
	}
	return &Arena[T]{size: blockSize}
}

// Alloc returns a zeroed slice of n elements with capacity exactly n, so an
// append by the caller can never bleed into a neighbouring allocation.
func (a *Arena[T]) Alloc(n int) []T {
	if a.size == 0 {
		a.size = arenaBlock
	}
	if cap(a.cur)-len(a.cur) < n {
		size := a.size
		if n > size {
			size = n
		}
		a.cur = make([]T, 0, size)
	}
	off := len(a.cur)
	a.cur = a.cur[:off+n]
	return a.cur[off : off+n : off+n]
}

// Copy returns a private arena-backed copy of src, preserving nil-ness
// (a nil src stays nil, an empty non-nil src stays empty non-nil).
func (a *Arena[T]) Copy(src []T) []T {
	if src == nil {
		return nil
	}
	if len(src) == 0 {
		// Slicing an untouched block would yield a nil header; a zero-byte
		// literal is non-nil and costs no allocation (runtime zerobase).
		return []T{}
	}
	dst := a.Alloc(len(src))
	copy(dst, src)
	return dst
}

// Marks is a membership set over dense IDs with O(1) clearing: each element
// is stamped with the current epoch, and Reset simply advances the epoch.
type Marks struct {
	stamp []uint32
	cur   uint32
}

// NewMarks returns an empty set over IDs 0..n-1.
func NewMarks(n int) *Marks {
	return &Marks{stamp: make([]uint32, n), cur: 1}
}

// Reset empties the set in O(1) (O(n) once every 2^32 resets, when the epoch
// counter wraps and the stamps must be wiped).
func (m *Marks) Reset() {
	m.cur++
	if m.cur == 0 {
		for i := range m.stamp {
			m.stamp[i] = 0
		}
		m.cur = 1
	}
}

// Set adds i to the set.
func (m *Marks) Set(i int) { m.stamp[i] = m.cur }

// Has reports whether i is in the set.
func (m *Marks) Has(i int) bool { return m.stamp[i] == m.cur }

// Len returns the capacity of the ID space (not the element count).
func (m *Marks) Len() int { return len(m.stamp) }

// Item is a Heap entry: V reached at key D.
type Item[V any] struct {
	V V
	D float64
}

// Heap is a binary min-heap on D. Its Push and Pop are container/heap's Push
// and Pop with their up and down sifts, step for step, so entries with equal
// keys leave in the order they would from container/heap; unlike it, a push
// boxes nothing. The zero value is an empty heap.
type Heap[V any] []Item[V]

// Push adds v at key d.
func (h *Heap[V]) Push(v V, d float64) {
	q := append(*h, Item[V]{v, d})
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(q[j].D < q[i].D) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	*h = q
}

// Pop removes and returns an entry of least key; the heap must not be empty.
func (h *Heap[V]) Pop() Item[V] {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n || j < 0 {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].D < q[j].D {
			j = j2 // right child
		}
		if !(q[j].D < q[i].D) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}
