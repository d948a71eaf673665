package kvstore

import (
	"encoding/binary"
	"math/bits"
	"sync/atomic"
)

const (
	// filterBitsPerKey is the filter density. With 8 probe bits per key it
	// gives a false-positive rate of about 0.2% (TestFilterFalsePositiveRate).
	filterBitsPerKey = 16
	// blockWords is one 64-byte cache line of filter bits.
	blockWords = 8
)

// filter is a cache-line-blocked Bloom filter: a key's 8 probe bits lie in
// two words of one 64-byte block, 4 bits each, one word from each half of
// the block. A lookup costs at most one cache miss and two loads, and an
// insert at most two stores. Its words are atomic so optimistic readers may
// probe it while the single writer adds keys (see the package comment).
type filter struct {
	words []atomic.Uint64
}

// newFilter sizes a filter for keys keys at filterBitsPerKey.
func newFilter(keys int) filter {
	blocks := (keys*filterBitsPerKey + blockWords*64 - 1) / (blockWords * 64)
	return filter{words: make([]atomic.Uint64, max(blocks, 1)*blockWords)}
}

// probe returns the two words holding h's bits and the bits in each: the
// high bits of h pick the block, those of a second hash g the words and
// 6-bit bit positions.
func (f *filter) probe(h uint64) (w0, w1 *atomic.Uint64, m0, m1 uint64) {
	b, _ := bits.Mul64(h, uint64(len(f.words)/blockWords))
	blk := f.words[b*blockWords : (b+1)*blockWords : (b+1)*blockWords]
	g := h * 0x9e3779b97f4a7c15
	w0, w1 = &blk[g>>62], &blk[4+g>>60&3]
	m0 = 1<<(g>>54&63) | 1<<(g>>48&63) | 1<<(g>>42&63) | 1<<(g>>36&63)
	m1 = 1<<(g>>30&63) | 1<<(g>>24&63) | 1<<(g>>18&63) | 1<<(g>>12&63)
	return w0, w1, m0, m1
}

// add sets h's probe bits. The caller is the filter's single writer, so
// storing only a word whose bits are still clear loses no update.
func (f *filter) add(h uint64) {
	w0, w1, m0, m1 := f.probe(h)
	if old := w0.Load(); old&m0 != m0 {
		w0.Store(old | m0)
	}
	if old := w1.Load(); old&m1 != m1 {
		w1.Store(old | m1)
	}
}

// mayContain reports whether a key hashing to h may have been added; false
// means it certainly was not.
func (f *filter) mayContain(h uint64) bool {
	w0, w1, m0, m1 := f.probe(h)
	return w0.Load()&m0 == m0 && w1.Load()&m1 == m1
}

// hashKey mixes key one 8-byte word at a time and finishes with
// MurmurHash3's 64-bit avalanche. Get hashes once and probes the memtable's
// index and every run's filter with the result.
func hashKey(key []byte) uint64 {
	const m = 0xbf58476d1ce4e5b9
	h := uint64(len(key)) * m
	for ; len(key) >= 8; key = key[8:] {
		h = bits.RotateLeft64((h^binary.LittleEndian.Uint64(key))*m, 31)
	}
	if len(key) > 0 {
		var w uint64
		for i, b := range key {
			w |= uint64(b) << (8 * i)
		}
		h = bits.RotateLeft64((h^w)*m, 31)
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}
