package kvstore

import (
	"math/bits"
	"sync/atomic"
)

// memtableBytesPerKey sizes a memtable's hash index and node blocks from its
// freeze threshold: db_bench's entries (16-byte key, 100-byte value) take
// 117 bytes each. The index is presized to twice the keys this predicts, so
// a memtable of db_bench entries peaks at about 55% load at any power-of-two
// threshold and never grows its index (TestIndexPresizeHolds). A memtable of
// smaller entries grows it, doubling past 3/4 load.
const memtableBytesPerKey = 128

// index is an open-addressing hash index from key to ordinal, with linear
// probing. A memtable's index maps a key to its skiplist node's ordinal in
// the node blocks, a run's to its entry's position in the run. A slot is one
// word: the high 32 bits of the key's hash (its tag) over the ordinal plus
// one, so an empty slot is 0 and a slot holds no Go pointer — the table
// costs no write barrier and no garbage-collector scan. The tag's top bits
// are also the slot's home, so growth re-places the stored words without
// rehashing a key.
//
// A memtable builds its table at its first Put (skiplist.putEntry), and
// indexes each new key as it inserts it. Optimistic readers probe the table
// while the writer fills it (see the package comment): the writer stores a
// slot's word, ordinal and hash tag, in one atomic store, after the node is
// complete; the table is never more than 3/4 full, so every probe meets an
// empty slot; growth builds a doubled table and publishes it atomically, and
// nothing is written to the old one afterwards. A run's table is filled
// while the run is built, from hashes its builder already holds, and is
// complete before the run is published; it is never written again.
type index struct {
	slots []atomic.Uint64
	// shift is 64 − log2(len(slots)): a hash's, or a stored word's, home
	// slot is its value >> shift.
	shift uint
}

// newIndex returns an empty table of n slots, a power of two (at least 8, so
// its 3/4 load still leaves an empty slot).
func newIndex(n int) *index {
	t := &index{slots: make([]atomic.Uint64, n), shift: uint(64 - bits.TrailingZeros(uint(n)))}
	// Touch every page now rather than on the first insert that lands on
	// it, inside a writer's critical section (blocks.go does the same).
	clear(t.slots)
	return t
}

// indexSlots is the presized table length for a memtable of memtableBytes.
func indexSlots(memtableBytes int) int {
	n := 8
	for n < 2*memtableBytes/memtableBytesPerKey {
		n *= 2
	}
	return n
}

// indexFor returns an empty table of the fewest slots, at least 8, that hold
// keys keys at most 3/4 full: a run's table, sized for its entries.
func indexFor(keys int) *index {
	n := 8
	for 4*keys > 3*n {
		n *= 2
	}
	return newIndex(n)
}

// slotWord packs a hash tag and an ordinal into a slot word.
func slotWord(h uint64, ord uint32) uint64 { return h>>32<<32 | uint64(ord) + 1 }

// probe walks t's slots for a key whose hash is h, from the hash's home
// slot to the first empty one, yielding each stored ordinal whose tag
// matches h: a caller compares the key stored at the ordinal with its own.
// The table is never more than 3/4 full, so every walk ends. Safe for
// optimistic readers.
type probe struct {
	t    *index
	h, i uint64
}

// probe starts a walk of t for hash h.
func (t *index) probe(h uint64) probe { return probe{t, h, h >> t.shift} }

// next returns the next ordinal whose tag matches, or false at the empty
// slot that ends the walk.
func (p *probe) next() (uint32, bool) {
	mask := uint64(len(p.t.slots) - 1)
	for {
		w := p.t.slots[p.i].Load()
		if w == 0 {
			return 0, false
		}
		p.i = (p.i + 1) & mask
		if w>>32 == p.h>>32 {
			return uint32(w) - 1, true
		}
	}
}

// insert indexes ordinal ord, whose key hashes to h and is not in t yet; t
// holds ordinals 0 to ord−1. It returns t, or the doubled table that
// replaces it when ord would leave t more than 3/4 full; the caller
// publishes a replacement. Writer-only.
func (t *index) insert(h uint64, ord uint32) *index {
	if 4*(int(ord)+1) > 3*len(t.slots) {
		t = t.grow()
	}
	t.slots[t.free(h)].Store(slotWord(h, ord))
	return t
}

// free returns the first empty slot from the home of h (a hash or a slot
// word). Writer-only.
func (t *index) free(h uint64) uint64 {
	mask := uint64(len(t.slots) - 1)
	for i := h >> t.shift; ; i = (i + 1) & mask {
		if t.slots[i].Load() == 0 {
			return i
		}
	}
}

// grow returns a table of twice t's slots holding t's words. Writer-only.
func (t *index) grow() *index {
	g := newIndex(2 * len(t.slots))
	for i := range t.slots {
		if w := t.slots[i].Load(); w != 0 {
			g.slots[g.free(w)].Store(w)
		}
	}
	return g
}
