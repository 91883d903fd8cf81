package pt

import "math/bits"

// Arena stores elements of type T under dense uint64 ids and never moves an
// element once it is allocated, so a pointer returned by At stays valid for
// the arena's lifetime. It backs both kinds of host page table: the radix
// tree's 4KB nodes and the hashed organizations' cluster slab.
//
// Elements live in segments that double in size: segment k holds 8<<k
// elements, so n elements cost O(log n) allocations, at most half the
// reserved space is unused, and growth never copies an element. At finds
// an id's segment from the id's bit length in O(1); the only load that
// waits for the id is the segment's base, before the element itself.
//
// Freed ids are recycled last-in first-out, which keeps the order of the
// ids Alloc hands out a pure function of the Alloc/Free sequence. The zero
// value is an empty arena.
type Arena[T any] struct {
	// segs[k] has capacity 8<<k and a length covering its allocated
	// elements, so indexing it rejects ids beyond the last Alloc. It comes
	// first so that At reads one cache line of an embedding page table.
	segs [][]T
	n    uint64   // ids ever handed out: [0, n)
	free []uint64 // recycled ids, popped from the end
}

// minSegBits sizes the first segment (8 elements) so that a tiny page table
// reserves little: 576 bytes of clusters or 32KB of radix nodes.
const minSegBits = 3

// locate returns the segment holding id and id's offset within it: with
// x = id+8, the segment is x's bit length less 4 and the offset is x with
// its top bit cleared. (x|1 and &63 change no result; they spare the
// compiler's zero and oversized-shift guards on the walk path.)
func locate(id uint64) (seg uint, off uint64) {
	x := id + 1<<minSegBits
	top := uint(bits.Len64(x|1)-1) & 63
	return top - minSegBits, x &^ (1 << top)
}

// Alloc returns the id of a zeroed element: the most recently freed id if
// there is one, otherwise the next fresh id.
func (a *Arena[T]) Alloc() uint64 {
	if n := len(a.free); n > 0 {
		id := a.free[n-1]
		a.free = a.free[:n-1]
		var zero T
		*a.At(id) = zero
		return id
	}
	id := a.n
	seg, off := locate(id)
	if off == 0 {
		a.segs = append(a.segs, make([]T, 1, 1<<(seg+minSegBits)))
	} else {
		a.segs[seg] = a.segs[seg][:off+1]
	}
	a.n++
	return id
}

// At returns the element with the given id, and panics if id was never
// allocated. The pointer stays valid, and the element stays where it is,
// across every later Alloc and Free.
func (a *Arena[T]) At(id uint64) *T {
	seg, off := locate(id)
	return &a.segs[seg][off]
}

// Free recycles id. The caller must not use id again until Alloc returns it.
func (a *Arena[T]) Free(id uint64) { a.free = append(a.free, id) }

// Live returns the number of elements currently allocated.
func (a *Arena[T]) Live() int { return int(a.n) - len(a.free) }

// elems returns a copy of the elements with ids [0, n), freed ones
// included.
func (a *Arena[T]) elems() []T {
	out := make([]T, 0, a.n)
	for _, seg := range a.segs {
		out = append(out, seg...)
	}
	return out
}

// reset replaces the arena's contents: elems[i] becomes id i, and free is
// the recycled-id stack, bottom first.
func (a *Arena[T]) reset(elems []T, free []uint64) {
	*a = Arena[T]{}
	for range elems {
		a.Alloc()
	}
	for i, seg := 0, 0; i < len(elems); seg++ {
		i += copy(a.segs[seg], elems[i:])
	}
	a.free = make([]uint64, len(free))
	copy(a.free, free)
}
