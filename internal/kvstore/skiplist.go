// Package kvstore is a miniature LevelDB-flavored key-value store: an
// LSM-style engine with a skiplist memtable that is frozen into immutable
// sorted runs. It exists as the repository's native substitute for the
// paper's LevelDB benchmark substrate (DESIGN.md §1). The engine takes no
// lock of its own: the sharded store (internal/store) owns the lock around
// it, so any lock in this repository — basic, CLoF, HMCS, CNA, ShflLock —
// can serve as the DB lock, as the paper swaps LevelDB's pthread mutex via
// LD_PRELOAD.
//
// The layers, newest first, are the mutable memtable and a stack of
// immutable runs. Every layer carries a cache-line-blocked Bloom filter
// (filter.go, LevelDB's FilterPolicy in miniature) holding each key the
// layer stores, tombstones included: a tombstone the filter hid would let an
// older layer's value come back. A Get hashes its key once and searches only
// the layers whose filter may hold it. The memtable adds a key to its filter
// when it inserts the key's node; a freeze hands the memtable's filter on to
// the run it becomes; a compaction fills the merged run's filter in its
// merge pass.
//
// A memtable carves its nodes, value slots, key bytes and value bytes from
// blocks it owns (blocks.go, LevelDB's Arena in miniature), so a Put that
// does not freeze makes no heap allocation, and a key greater than the
// memtable's last key appends without a search. A block lives as long as
// anything points into it. A freeze hands the new run slices into the
// memtable's key and value blocks; the node and slot blocks die with the
// skiplist. A compaction copies every live key and value into the merged
// run's own blocks, so the blocks of the runs it replaces, dead overwritten
// values and all, die with them. Dead space in a memtable is capped: it
// freezes early once the bytes it has carved reach arenaFactor ×
// MemtableBytes, whatever its live bytes.
//
// Readers come in two disciplines. A serialized reader (DB.Get/Scan) runs
// while no writer does, exclusive or shared with other readers. An
// optimistic reader runs the same methods concurrently with a writer, the
// sharded store's optimistic-read fast path (DESIGN.md S33): all
// reader-visible state — skiplist links, value slots, filter words, the
// memtable and run-stack pointers — is published through atomics, so such a
// reader is data-race-free and always observes structurally sound memory.
// What it may observe is a *mixed* state (half of a concurrent write);
// callers must certify every such result through seqlock validation and
// discard it on failure.
//
// An optimistic reader therefore reads only atomics and fields that are
// immutable once published: a node's key, a slot's value, block bytes
// (blocks are append-only, so carved memory is never written again). It
// never reads the writer's plain fields, and above all never sizes an
// allocation from one: the compiler loads such a field once for the
// allocation and again for the slice's capacity, so a writer bumping it in
// between hands the reader a capacity past its allocation, and the garbage
// collector later finds a pointer to a free object. The filters keep the
// validation argument sound:
//
//   - a reader that overlaps a writer may probe a filter the writer has not
//     finished, and so miss a key, but then validation fails and the read
//     is discarded;
//   - a reader that starts after a writer finished sees every bit the
//     writer set, because the seqlock's release (writer unlock) and acquire
//     (reader's sequence read) order the filter stores before its probes;
//   - a freeze publishes a run together with its complete filter (the
//     memtable's, to which nothing is added after the freeze), and a
//     compaction fills its run's filter before publishing the run.
package kvstore

import (
	"bytes"
	"sync/atomic"
	"unsafe"

	"github.com/clof-go/clof/internal/xrand"
)

const maxHeight = 12

// arenaFactor caps a memtable's dead space: it freezes once the bytes it has
// carved from its blocks (nodes, value slots, keys and values) reach
// arenaFactor × MemtableBytes, however few of them are live. An overwrite
// carves a new value slot and value and leaves the old ones dead in their
// blocks, so without the cap overwriting one key forever would grow the
// blocks without bound. A memtable of db_bench-shaped entries that is never
// overwritten carves about 2.4 bytes per live byte. On the repository
// benchmark (bench/, seed 1) the carved bytes peaked at 9.96× MemtableBytes
// on ycsb-b and 4.29× on ycsb-a, so a cap of 16× moves no benchmark freeze:
// there the live-byte trigger always fires first.
const arenaFactor = 16

const (
	nodeBytes = int(unsafe.Sizeof(skipNode{}))
	slotBytes = int(unsafe.Sizeof(valSlot{}))
)

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
	// last is the last node at each level (head where a level is empty),
	// for the sorted-append path. Writer-only.
	last [maxHeight]*skipNode
	// n, bytes and arena are writer-only plain fields: the entry count, the
	// live bytes the freeze trigger counts, and the bytes carved from the
	// blocks below, live or dead.
	n, bytes, arena int
	nodes           blocks[skipNode]
	slots           blocks[valSlot]
	// keys and vals hold key and value bytes in separate blocks, so a
	// search touches only key bytes.
	keys, vals blocks[byte]
	// filter holds every key ever inserted, tombstones included; the
	// freeze hands it on to the run the memtable becomes.
	filter filter
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

// entry returns the node's current entry. Safe for optimistic readers: a
// published node always holds a slot.
func (x *skipNode) entry() entry {
	v := x.val.Load()
	return entry{key: x.key, value: v.value, tombstone: v.tombstone}
}

// newSkiplist returns an empty skiplist whose filter is sized for a
// memtable of memtableBytes.
func newSkiplist(seed uint64, memtableBytes int) *skiplist {
	s := &skiplist{head: &skipNode{}, rng: xrand.New(seed), filter: newFilter(memtableBytes / memtableBytesPerKey)}
	for level := range s.last {
		s.last[level] = s.head
	}
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

// putEntry inserts key or overwrites its value (a tombstone for a
// deletion), copying both into the skiplist's blocks. A key greater than
// the last key links after the last node at each level without a search
// (RocksDB's insert hint); every other key, the last key itself included,
// is searched for. Both paths draw one height per insert, so a skiplist's
// shape does not depend on the path. The caller is the single writer;
// concurrent optimistic readers are tolerated by adding the key to the
// filter, then publishing the node bottom-up after its fields are complete.
func (s *skiplist) putEntry(key, value []byte, tombstone bool) {
	slot := &s.slots.alloc(1)[0]
	*slot = valSlot{value: s.vals.copy(value), tombstone: tombstone}
	s.arena += slotBytes + len(value)
	var prev [maxHeight]*skipNode
	if last := s.last[0]; last == s.head || bytes.Compare(key, last.key) > 0 {
		prev = s.last
	} else if x := s.findGreaterOrEqual(key, &prev); x != nil && bytes.Equal(x.key, key) {
		s.bytes += len(value) - len(x.val.Load().value)
		x.val.Store(slot)
		return
	}
	h := s.randomHeight()
	if cur := int(s.height.Load()); h > cur {
		for level := cur; level < h; level++ {
			prev[level] = s.head
		}
		s.height.Store(int32(h))
	}
	s.filter.add(hashKey(key))
	node := &s.nodes.alloc(1)[0]
	node.key = s.keys.copy(key)
	node.val.Store(slot)
	for level := 0; level < h; level++ {
		node.next[level].Store(prev[level].next[level].Load())
		prev[level].next[level].Store(node)
		if prev[level] == s.last[level] {
			s.last[level] = node
		}
	}
	s.n++
	s.bytes += len(key) + len(value) + 1
	s.arena += nodeBytes + len(key)
}

// full reports whether the memtable must freeze: its live bytes reached
// memtableBytes, or its carved bytes the dead-space cap.
func (s *skiplist) full(memtableBytes int) bool {
	return s.bytes >= memtableBytes || s.arena >= arenaFactor*memtableBytes
}

// get returns the entry for key; found is false if the key was never
// written (a tombstone IS found). Safe for serialized and optimistic
// readers alike.
func (s *skiplist) get(key []byte) (e entry, found bool) {
	x := s.findGreaterOrEqual(key, nil)
	if x != nil && bytes.Equal(x.key, key) {
		return x.entry(), true
	}
	return entry{}, false
}

// entries returns all entries in key order, for the freeze. It runs on the
// writer path only, so it may size its result from the plain field n.
func (s *skiplist) entries() []entry {
	out := make([]entry, 0, s.n)
	for x := s.head.next[0].Load(); x != nil; x = x.next[0].Load() {
		out = append(out, x.entry())
	}
	return out
}

// entriesFrom returns the entries with start <= key < end in key order; a
// nil end is unbounded. Optimistic readers call it, so it must not size its
// result from n (the package comment gives the reason).
func (s *skiplist) entriesFrom(start, end []byte) []entry {
	var out []entry
	for x := s.findGreaterOrEqual(start, nil); x != nil; x = x.next[0].Load() {
		if end != nil && bytes.Compare(x.key, end) >= 0 {
			break
		}
		out = append(out, x.entry())
	}
	return out
}
