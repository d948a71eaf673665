package kvstore

import (
	"sync/atomic"
	"unsafe"
)

// Block storage, LevelDB's Arena in miniature: a memtable carves its nodes,
// value slots, key bytes and value bytes from blocks it owns, so a Put makes
// no heap allocation of its own. Blocks are append-only: memory once handed
// out is never written again, which is what lets an optimistic reader follow
// a published pointer into a block while the writer carves the next entry.
//
// Value slots, key bytes and value bytes grow their blocks geometrically,
// from firstBlockBytes up to maxBlockBytes, so a small memtable does not pay
// for a large block; nodes come in blocks of one size per memtable, chosen
// from its freeze threshold (nodeBlocks), so that a node's ordinal names its
// block and place with a shift and a mask. A new block is cleared when it is
// allocated: a fresh span from the OS arrives zeroed but untouched, and
// without the clear the first entry landing on each page takes the page
// fault inside the writer's critical section.
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

// nodeBlocks carves skiplist nodes from blocks of 1<<shift nodes each and
// numbers them in the order carved, so that an index slot names a node by a
// 32-bit ordinal instead of a pointer. The block list is published
// atomically after each new block, so an optimistic reader resolves every
// ordinal it loads from a slot: a slot is stored after its node is carved.
type nodeBlocks struct {
	shift uint
	// dir lists every block, oldest first. A new list may share its
	// backing array with the one it replaces: it only writes past the old
	// list's length, which no reader of the old list reads.
	dir atomic.Pointer[[][]skipNode]
	// free and n are writer-only: the unused tail of the newest block and
	// the number of nodes carved.
	free []skipNode
	n    uint32
}

// alloc returns a zero node and its ordinal.
func (b *nodeBlocks) alloc() (*skipNode, uint32) {
	if len(b.free) == 0 {
		blk := make([]skipNode, 1<<b.shift)
		clear(blk)
		var dir [][]skipNode
		if old := b.dir.Load(); old != nil {
			dir = *old
		}
		dir = append(dir, blk)
		b.dir.Store(&dir)
		b.free = blk
	}
	x, ord := &b.free[0], b.n
	b.free = b.free[1:]
	b.n++
	return x, ord
}

// at returns the node of ordinal ord. Safe for optimistic readers.
func (b *nodeBlocks) at(ord uint32) *skipNode {
	return &(*b.dir.Load())[ord>>b.shift][ord&(1<<b.shift-1)]
}
