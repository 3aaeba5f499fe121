package core

import (
	"math/bits"

	"mediacache/internal/media"
)

// idSet is a fixed-size bitset over clip ids 0..n, sized once from the
// repository. Repositories number their clips densely from 1, so one bit per
// id replaces a hash set, and walking the words in order visits members in
// ascending id order without an auxiliary index.
type idSet []uint64

// newIDSet returns an empty set able to hold ids 0..n.
func newIDSet(n int) idSet { return make(idSet, n/64+1) }

// has reports whether id is a member; ids outside the set's range are not.
func (s idSet) has(id media.ClipID) bool {
	w := uint(id) >> 6
	return w < uint(len(s)) && s[w]&(1<<(uint(id)&63)) != 0
}

// add inserts id, which must lie within the set's range.
func (s idSet) add(id media.ClipID) { s[uint(id)>>6] |= 1 << (uint(id) & 63) }

// del removes id, which must lie within the set's range.
func (s idSet) del(id media.ClipID) { s[uint(id)>>6] &^= 1 << (uint(id) & 63) }

// ascend calls fn for each member in ascending id order until fn returns
// false. A word is read once before its members are visited, so fn may
// remove the id it is handed.
func (s idSet) ascend(fn func(media.ClipID) bool) {
	for w, word := range s {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			if !fn(media.ClipID(w<<6 | b)) {
				return
			}
		}
	}
}
