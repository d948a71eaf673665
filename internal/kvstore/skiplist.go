// Package kvstore is a miniature LevelDB-flavored key-value store: an
// LSM-style engine with a skiplist memtable that is frozen into immutable
// sorted runs. It exists as the repository's native substitute for the
// paper's LevelDB benchmark substrate (DESIGN.md §1). The engine takes no
// lock of its own: the sharded store (internal/store) owns the lock around
// it, so any lock in this repository — basic, CLoF, HMCS, CNA, ShflLock —
// can serve as the DB lock, as the paper swaps LevelDB's pthread mutex via
// LD_PRELOAD.
//
// Readers come in two disciplines. A serialized reader (DB.Get/Scan) runs
// while no writer does, exclusive or shared with other readers. An
// optimistic reader runs the same methods concurrently with a writer, the
// sharded store's optimistic-read fast path (DESIGN.md S33): all
// reader-visible state — skiplist links, value slots, the memtable and
// run-stack pointers — is published through atomics, so such a reader is
// data-race-free and always observes structurally sound memory. What it may
// observe is a *mixed* state (half of a concurrent write); callers must
// certify every such result through seqlock validation and discard it on
// failure.
package kvstore

import (
	"bytes"
	"sync/atomic"

	"github.com/clof-go/clof/internal/xrand"
)

const maxHeight = 12

// skiplist is a single-writer skiplist keyed by []byte. Writers require
// external synchronization (the caller's lock); readers may traverse
// concurrently with the writer — links and value slots are atomically published, LevelDB-memtable
// style — provided they validate what they read (see the package comment).
type skiplist struct {
	head *skipNode
	// height is the current index height; racily read by optimistic readers
	// (a stale height only costs extra comparisons, never misses keys,
	// because level 0 is always complete).
	height atomic.Int32
	rng    *xrand.Rand
	n      int
	bytes  int
}

// valSlot is an immutable value+tombstone pair. Overwrites swap the node's
// slot pointer instead of mutating in place, so an optimistic reader sees
// either the old pair or the new pair, never a value/tombstone mix.
type valSlot struct {
	value     []byte
	tombstone bool
}

type skipNode struct {
	key  []byte
	val  atomic.Pointer[valSlot]
	next [maxHeight]atomic.Pointer[skipNode]
}

func newSkiplist(seed uint64) *skiplist {
	s := &skiplist{head: &skipNode{}, rng: xrand.New(seed)}
	s.height.Store(1)
	return s
}

// randomHeight grows with probability 1/4 per level, as in LevelDB.
func (s *skiplist) randomHeight() int {
	h := 1
	for h < maxHeight && s.rng.Intn(4) == 0 {
		h++
	}
	return h
}

// findGreaterOrEqual returns the first node with key >= key, filling prev
// with the predecessor at every level when prev is non-nil.
func (s *skiplist) findGreaterOrEqual(key []byte, prev *[maxHeight]*skipNode) *skipNode {
	x := s.head
	for level := int(s.height.Load()) - 1; level >= 0; level-- {
		for {
			nx := x.next[level].Load()
			if nx == nil || bytes.Compare(nx.key, key) >= 0 {
				break
			}
			x = nx
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.next[0].Load()
}

// putEntry inserts or overwrites an entry (possibly a tombstone). The caller
// is the single writer; concurrent optimistic readers are tolerated by
// publishing the node bottom-up after its fields are complete.
func (s *skiplist) putEntry(e entry) {
	var prev [maxHeight]*skipNode
	if x := s.findGreaterOrEqual(e.key, &prev); x != nil && bytes.Equal(x.key, e.key) {
		old := x.val.Load()
		s.bytes += len(e.value) - len(old.value)
		x.val.Store(&valSlot{value: e.value, tombstone: e.tombstone})
		return
	}
	h := s.randomHeight()
	if cur := int(s.height.Load()); h > cur {
		for level := cur; level < h; level++ {
			prev[level] = s.head
		}
		s.height.Store(int32(h))
	}
	node := &skipNode{key: e.key}
	node.val.Store(&valSlot{value: e.value, tombstone: e.tombstone})
	for level := 0; level < h; level++ {
		node.next[level].Store(prev[level].next[level].Load())
		prev[level].next[level].Store(node)
	}
	s.n++
	s.bytes += len(e.key) + len(e.value) + 1
}

// get returns the entry for key; found is false if the key was never
// written (a tombstone IS found). Safe for serialized and optimistic
// readers alike.
func (s *skiplist) get(key []byte) (e entry, found bool) {
	x := s.findGreaterOrEqual(key, nil)
	if x != nil && bytes.Equal(x.key, key) {
		v := x.val.Load()
		return entry{key: x.key, value: v.value, tombstone: v.tombstone}, true
	}
	return entry{}, false
}

// entries returns all entries in key order (for freezing).
func (s *skiplist) entries() []entry {
	return s.entriesFrom(nil)
}

// entriesFrom returns entries with key >= start in key order.
func (s *skiplist) entriesFrom(start []byte) []entry {
	var x *skipNode
	if len(start) == 0 {
		x = s.head.next[0].Load()
	} else {
		x = s.findGreaterOrEqual(start, nil)
	}
	var out []entry
	for ; x != nil; x = x.next[0].Load() {
		v := x.val.Load()
		out = append(out, entry{key: x.key, value: v.value, tombstone: v.tombstone})
	}
	return out
}
