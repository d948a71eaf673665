package kvstore

import "unsafe"

// Block storage, LevelDB's Arena in miniature: a memtable carves its nodes,
// value slots, key bytes and value bytes from blocks it owns, so a Put makes
// no heap allocation of its own. Blocks are append-only: memory once handed
// out is never written again, which is what lets an optimistic reader follow
// a published pointer into a block while the writer carves the next entry.
//
// Each kind grows its blocks geometrically, from firstBlockBytes up to
// maxBlockBytes, so a small memtable does not pay for a large block. A new
// block is cleared when it is allocated: a fresh span from the OS arrives
// zeroed but untouched, and without the clear the first entry landing on
// each page takes the page fault inside the writer's critical section.
const (
	firstBlockBytes = 1 << 10
	// maxBlockBytes is the largest block. A request larger than a quarter
	// of it gets its own allocation, so no block wastes more than a quarter
	// of itself on a tail too short for the next request.
	maxBlockBytes = 64 << 10
)

// blocks carves slices of T from blocks it owns.
type blocks[T any] struct {
	free []T // the unused tail of the newest block
	next int // the length of the next block
}

// alloc returns n zero values of T carved from the blocks. The slice's
// capacity equals its length, so a caller's append reallocates instead of
// writing into the neighbouring slice.
func (b *blocks[T]) alloc(n int) []T {
	if n > len(b.free) {
		size := int(unsafe.Sizeof(*new(T)))
		if n*size > maxBlockBytes/4 {
			return make([]T, n)
		}
		b.next = min(max(2*b.next, firstBlockBytes/size), maxBlockBytes/size)
		for b.next < n {
			b.next *= 2
		}
		b.free = make([]T, b.next)
		clear(b.free)
	}
	s := b.free[:n:n]
	b.free = b.free[n:]
	return s
}

// copy returns a copy of src carved from the blocks, nil for an empty src.
func (b *blocks[T]) copy(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	dst := b.alloc(len(src))
	copy(dst, src)
	return dst
}
