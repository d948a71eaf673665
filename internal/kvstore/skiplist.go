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
// immutable runs. A Get hashes its key once and probes every layer with
// the hash; no layer searches its key order for it. The memtable has an
// exact hash index from key to skiplist node (index.go), so a Get or an
// overwriting Put finds its node in a probe or two instead of a search. A
// run has two hashed structures, each holding every key the run stores: a
// cache-line-blocked Bloom filter (filter.go, LevelDB's FilterPolicy in
// miniature) and an exact index of the memtable's kind from key to entry
// position. A Get probes a run's filter
// first: most runs do not hold a given key, and the filter answers for
// them in one cache line, where the index costs one more. A freeze builds
// its run's filter and index from the hashes the memtable's nodes store,
// sized for the run's key count; a compaction fills the merged run's in its
// merge pass. A run keeps its entries sorted for Scan and the compaction's
// merge, and the skiplist keeps the order that the freeze, Scan and the
// insert of a new key need. The engine has no deletion, so every entry of
// every layer is a value, and a read (Get, Scan) writes nothing. A bulk
// load (DB.Load) bypasses the memtable: it builds the runs directly, cut
// where the memtable would have frozen, so it leaves the DB the same Puts
// and a Flush would. It checks its whole input before it publishes a run,
// so input it refuses leaves the DB as it was.
//
// A memtable carves its nodes, value slots, key bytes and value bytes from
// blocks it owns (blocks.go, LevelDB's Arena in miniature), so a Put that
// does not freeze makes no heap allocation. A block lives as long as
// anything points into it. A freeze hands the new run slices into the
// memtable's key and value blocks; the node and slot blocks die with the
// skiplist. A bulk load copies each run's keys into one buffer of their
// exact size, and its values into another.
// A compaction copies each key and its newest value into the merged run's
// own blocks, so the blocks of the runs it replaces, dead overwritten values
// and all, die with them. Dead space in a memtable is capped: it freezes
// early once the bytes it has carved reach arenaFactor × MemtableBytes,
// whatever its live bytes.
//
// Readers come in two disciplines. A serialized reader (DB.Get/Scan) runs
// while no writer does, exclusive or shared with other readers. An
// optimistic reader runs the same methods concurrently with a writer, the
// sharded store's optimistic-read fast path (DESIGN.md S33): all
// reader-visible state — skiplist links, value slots, index slots, filter
// words, the index and node-block pointers, the memtable and run-stack
// pointers — is published through atomics, so such a reader is
// data-race-free and always observes structurally sound memory. What it may
// observe is a *mixed* state (half of a concurrent write); callers must
// certify every such result through seqlock validation and discard it on
// failure.
//
// An optimistic reader therefore reads only atomics and fields that are
// immutable once published: a node's key and prefix, a slot's value, block
// bytes (blocks are append-only, so carved memory is never written again).
// It never reads the writer's plain fields, and above all never sizes an
// allocation from one: the compiler loads such a field once for the
// allocation and again for the slice's capacity, so a writer bumping it in
// between hands the reader a capacity past its allocation, and the garbage
// collector later finds a pointer to a free object. The hashed structures
// keep the validation argument sound:
//
//   - a reader that overlaps a writer may probe a memtable index the writer
//     has not finished, or hold one the writer has since replaced by a
//     grown one, and so miss a key, but then validation fails and the read
//     is discarded;
//   - a reader that starts after a writer finished sees every slot word and
//     filter bit the writer stored, because the seqlock's release (writer
//     unlock) and acquire (reader's sequence read) order those stores before
//     its probes;
//   - every probe ends: the writer stores a slot's word — ordinal and hash
//     tag together — in one atomic store, after a memtable's node and its
//     block are published, and keeps every table, a run's too, at most 3/4
//     full, also the table a reader may still hold after a growth, to which
//     nothing is written again;
//   - a run's filter and index are never seen unfinished: a freeze, a bulk
//     load and a compaction each fill them before the atomic store of the
//     run stack publishes the run, nothing writes to them afterwards, and a
//     reader reaches a run only through an atomic load of the run stack,
//     which orders the fill before its probes.
package kvstore

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"
	"unsafe"

	"github.com/clof-go/clof/internal/xrand"
)

// maxHeight bounds a node's levels. Nine levels at branching factor 4 serve
// 4⁹ ≈ 262,000 keys, some thirty times a 1 MiB memtable of db_bench
// entries, and make a node exactly two cache lines (TestNodeLayout).
const maxHeight = 9

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

// skiplist is a single-writer skiplist keyed by []byte, with a hash index
// from key to node (index.go). Writers require external synchronization
// (the caller's lock); readers may traverse concurrently with the writer —
// links, value slots, index slots and the index itself are atomically
// published, LevelDB-memtable style — provided they validate what they read
// (see the package comment).
type skiplist struct {
	head *skipNode
	// height is the current index height; racily read by optimistic readers
	// (a stale height only costs extra comparisons, never misses keys,
	// because level 0 is always complete).
	height atomic.Int32
	rng    *xrand.Rand
	// fences lists the nodes on level fenceLevel and up in key order, for
	// the search of a new key (findPrev). Writer-only.
	fences []fence
	// n, the entry count, and fill are writer-only plain fields.
	n int
	fill
	nodes nodeBlocks
	slots blocks[valSlot]
	// keys and vals hold key and value bytes in separate blocks.
	keys, vals blocks[byte]
	// index finds every key's node. It is nil until the first Put, and
	// replaced by a doubled table past 3/4 load. slotsHint, the presized
	// table length, is writer-only.
	index     atomic.Pointer[index]
	slotsHint int
}

// valSlot is an immutable value. Overwrites swap the node's slot pointer
// instead of mutating in place: a slice header is three words, so an
// optimistic reader of a value stored in place could see the new pointer
// with the old length. Through the slot it sees the old value or the new
// one, never a mix.
type valSlot struct{ value []byte }

// skipNode is one key's node. A search reads only prefix and next, which
// share the node's first cache line up to level 5 when the node starts a
// line, as it does in a block of 256 nodes or more (TestNodeLayout).
type skipNode struct {
	prefix keyPrefix
	next   [maxHeight]atomic.Pointer[skipNode]
	val    atomic.Pointer[valSlot]
	key    []byte
	// hash is hashKey(key), kept for the run filter and run index the
	// freeze builds, so the freeze hashes no key again.
	hash uint64
}

// keyPrefix is a key's first 16 bytes as two big-endian words, zero padded.
// Where two keys' prefixes differ they order the keys exactly, so a search
// reads key bytes only on a tie. (A struct, not an array, so that it is
// passed in registers.)
type keyPrefix struct{ hi, lo uint64 }

// prefixOf returns key's prefix.
func prefixOf(key []byte) keyPrefix {
	if len(key) < 16 {
		var b [16]byte
		copy(b[:], key)
		key = b[:]
	}
	return keyPrefix{binary.BigEndian.Uint64(key), binary.BigEndian.Uint64(key[8:])}
}

// less reports whether prefix a orders before prefix b. Equal prefixes
// leave the order of their keys to the bytes past them.
func (a keyPrefix) less(b keyPrefix) bool {
	return a.hi < b.hi || a.hi == b.hi && a.lo < b.lo
}

// less reports whether x's key orders before key, whose prefix is p.
func (x *skipNode) less(key []byte, p keyPrefix) bool {
	if x.prefix != p {
		return x.prefix.less(p)
	}
	return bytes.Compare(x.key, key) < 0
}

// equal reports whether x's key is key; a key of at most 16 bytes is decided
// by its prefix and length alone.
func (x *skipNode) equal(key []byte) bool {
	return len(x.key) == len(key) && x.prefix == prefixOf(key) && (len(key) <= 16 || bytes.Equal(x.key[16:], key[16:]))
}

// entry returns the node's current entry. Safe for optimistic readers: a
// published node always holds a slot.
func (x *skipNode) entry() entry {
	return entry{key: x.key, value: x.val.Load().value}
}

// newSkiplist returns an empty skiplist whose index and node blocks are
// sized for a memtable of memtableBytes.
func newSkiplist(seed uint64, memtableBytes int) *skiplist {
	s := &skiplist{head: &skipNode{}, rng: xrand.New(seed), slotsHint: indexSlots(memtableBytes)}
	// Node blocks of 1/16 of the index's slots, 8 to 512 nodes (1 to 64
	// KiB, like the other blocks): 256 or more from 256 KiB memtables on,
	// allocations of their own, which start on a page.
	s.nodes.shift = uint(min(max(bits.TrailingZeros(uint(s.slotsHint))-4, 3), 9))
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

// findGreaterOrEqual returns the first node with key >= key, whose prefix is
// p. Safe for optimistic readers.
func (s *skiplist) findGreaterOrEqual(key []byte, p keyPrefix) *skipNode {
	return s.descend(s.head, int(s.height.Load())-1, key, p, nil)
}

// descend searches for key, whose prefix is p, from x, a node before it on
// level top, down to level 0, filling prev[0:top+1] with key's predecessors
// when prev is non-nil, and returns the first node with key >= key.
func (s *skiplist) descend(x *skipNode, top int, key []byte, p keyPrefix, prev *[maxHeight]*skipNode) *skipNode {
	for level := top; level >= 0; level-- {
		for {
			nx := x.next[level].Load()
			if nx == nil || !nx.less(key, p) {
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

// lookup returns key's node, nil if the key was never written, by probing
// the index with key's hash h. Safe for serialized and optimistic readers
// alike.
func (s *skiplist) lookup(key []byte, h uint64) *skipNode {
	if t := s.index.Load(); t != nil {
		return s.find(t, key, h)
	}
	return nil
}

// find probes t for key, whose hash is h, and returns key's node, nil if
// t does not hold it. Safe for optimistic readers.
func (s *skiplist) find(t *index, key []byte, h uint64) *skipNode {
	for p := t.probe(h); ; {
		ord, ok := p.next()
		if !ok {
			return nil
		}
		if x := s.nodes.at(ord); x.equal(key) {
			return x
		}
	}
}

// fenceLevel is the lowest level the fences cover: they list the nodes
// taller than it, one in 16.
const fenceLevel = 2

// fence is a node on level fenceLevel and up, as the insert search reads
// it: its key prefix, ordinal and height, 24 bytes with no pointer. Only
// inserts walk the skiplist (Get and overwrites go through the index), so
// its nodes are mostly out of cache, and each step of a walk is a miss. A
// binary search over the fences replaces the walk of the upper levels: it
// touches a few cache lines, and the top of it is shared by every insert.
type fence struct {
	prefix keyPrefix
	ord    uint32
	height int32
}

// findPrev fills prev[0:height] with the predecessors of key, whose prefix
// is p and which the skiplist does not hold, and returns the position of
// key among the fences. On level fenceLevel and up the predecessor is the
// last fence before key that reaches the level; below, the search walks
// down from the predecessor on fenceLevel. Writer-only.
func (s *skiplist) findPrev(key []byte, p keyPrefix, height int, prev *[maxHeight]*skipNode) int {
	fi := sort.Search(len(s.fences), func(i int) bool {
		f := &s.fences[i]
		return !(f.prefix.less(p) || f.prefix == p && s.nodes.at(f.ord).less(key, p))
	})
	j := fi - 1
	for level := fenceLevel; level < max(height, fenceLevel+1); level++ {
		for j >= 0 && int(s.fences[j].height) <= level {
			j--
		}
		prev[level] = s.head
		if j >= 0 {
			prev[level] = s.nodes.at(s.fences[j].ord)
		}
	}
	s.descend(prev[fenceLevel], fenceLevel-1, key, p, prev)
	return fi
}

// putEntry inserts key or overwrites its value, copying both into the
// skiplist's blocks. Every key is looked up in the index, and a new key is
// searched for (findPrev) and indexed as it is inserted.
//
// The stores that miss the cache — the copies, the new node's fields —
// are issued before the search, so that their misses overlap its chain of
// loads. The caller is the single writer; concurrent optimistic readers
// are tolerated by publishing the node bottom-up after its fields are
// complete, then indexing it.
func (s *skiplist) putEntry(key, value []byte) {
	h, p := hashKey(key), prefixOf(key)
	t := s.index.Load()
	if t == nil {
		t = newIndex(s.slotsHint)
		s.index.Store(t)
	}
	x := s.find(t, key, h)
	slot := &s.slots.alloc(1)[0]
	*slot = valSlot{value: s.vals.copy(value)}
	if x != nil {
		s.bytes += len(value) - len(x.val.Load().value)
		s.arena += slotBytes + len(value)
		x.val.Store(slot)
		return
	}
	node, ord := s.nodes.alloc()
	node.prefix, node.key, node.hash = p, s.keys.copy(key), h
	height := s.randomHeight()
	var prev [maxHeight]*skipNode
	fi := s.findPrev(key, p, height, &prev)
	node.val.Store(slot)
	if cur := int(s.height.Load()); height > cur {
		for level := cur; level < height; level++ {
			prev[level] = s.head
		}
		s.height.Store(int32(height))
	}
	for level := 0; level < height; level++ {
		node.next[level].Store(prev[level].next[level].Load())
		prev[level].next[level].Store(node)
	}
	if height > fenceLevel {
		s.fences = slices.Insert(s.fences, fi, fence{p, ord, int32(height)})
	}
	s.n++
	s.addEntry(key, value)
	if g := t.insert(h, ord); g != t {
		s.index.Store(g)
	}
}

// fill is what a memtable's freeze trigger counts: the live bytes, and the
// bytes carved from its blocks, live or dead. DB.Load counts each run it
// builds in one, so it cuts the run where a memtable fed the same Puts
// freezes.
type fill struct{ bytes, arena int }

// addEntry counts a new key's entry: its node, value slot, key and value.
func (f *fill) addEntry(key, value []byte) {
	f.bytes += len(key) + len(value) + 1
	f.arena += nodeBytes + slotBytes + len(key) + len(value)
}

// full reports whether the memtable must freeze: its live bytes reached
// memtableBytes, or its carved bytes the dead-space cap.
func (f *fill) full(memtableBytes int) bool {
	return f.bytes >= memtableBytes || f.arena >= arenaFactor*memtableBytes
}

// freeze returns the run the memtable becomes: its entries in key order,
// with a filter and an index sized for their number and filled from the
// hashes the nodes store, so no key is hashed again. It runs on the writer
// path only, so it may size its result from the plain field n.
func (s *skiplist) freeze() *run {
	r := newRun(s.n)
	for x := s.head.next[0].Load(); x != nil; x = x.next[0].Load() {
		r.add(x.entry(), x.hash)
	}
	return r
}

// entriesFrom returns the entries with start <= key < end in key order; a
// nil end is unbounded. Optimistic readers call it, so it must not size its
// result from n (the package comment gives the reason).
func (s *skiplist) entriesFrom(start, end []byte) []entry {
	var out []entry
	for x := s.findGreaterOrEqual(start, prefixOf(start)); x != nil; x = x.next[0].Load() {
		if end != nil && bytes.Compare(x.key, end) >= 0 {
			break
		}
		out = append(out, x.entry())
	}
	return out
}
