package lrusk

import (
	"sort"

	"mediacache/internal/history"
	"mediacache/internal/media"
	"mediacache/internal/rbtree"
	"mediacache/internal/vtime"
)

// skIndex is the tree-based victim index shared by the default (indexed)
// Policy and the Fast implementation.
//
// The insight: the LRU-SK eviction score Δ_K(x,t)·s(x) depends on the
// current time t, so no single static order exists across clip sizes — but
// *within* one size class the ordering is static: larger Δ_K means smaller
// t_K, independent of t. The index therefore keeps one red-black tree per
// distinct clip size, ordered by (t_K, t_last, id); the per-class best
// victim is the tree minimum, and the global victim is chosen by comparing
// one candidate score per class. Clips with incomplete history (infinite
// Δ_K) live in per-class side trees ordered by (t_last, id) and are always
// preferred, largest class first — exactly the scan implementation's
// ordering, which the equivalence property test asserts decision-for-
// decision.
//
// Victim selection costs O(C + log n) for C distinct sizes (the paper's
// repository has 6) instead of the scan's O(n) per victim.
type skIndex struct {
	tracker *history.Tracker

	// full holds resident clips with complete K-reference history, one tree
	// per size class ordered by (t_K, t_last, id).
	full map[media.Bytes]*rbtree.Tree[fullKey, media.ClipID]
	// partial holds resident clips with incomplete history, one tree per
	// size class ordered by (t_last, id).
	partial map[media.Bytes]*rbtree.Tree[partialKey, media.ClipID]
	// locs records where each resident clip currently lives so that
	// re-keying on reference and removal on eviction are O(log n). It is
	// packed in no particular order; pos[id] is the index of clip id's
	// location, or -1 when it has none.
	locs []location
	pos  []int32
	// sizesDesc caches the distinct resident size classes in descending
	// order (rebuilt lazily when classes appear).
	sizesDesc []media.Bytes
}

// fullKey orders complete-history clips: smaller t_K = larger Δ_K = better
// victim; ties prefer the older last reference, then the lower id.
type fullKey struct {
	kth  vtime.Time
	last vtime.Time
	id   media.ClipID
}

func lessFull(a, b fullKey) bool {
	if a.kth != b.kth {
		return a.kth < b.kth
	}
	if a.last != b.last {
		return a.last < b.last
	}
	return a.id < b.id
}

// partialKey orders incomplete-history clips by LRU then id.
type partialKey struct {
	last vtime.Time
	id   media.ClipID
}

func lessPartial(a, b partialKey) bool {
	if a.last != b.last {
		return a.last < b.last
	}
	return a.id < b.id
}

// location records a resident clip's tree and key.
type location struct {
	id     media.ClipID
	size   media.Bytes
	isFull bool
	fk     fullKey
	pk     partialKey
}

// newSKIndex returns an empty index deriving keys from tracker.
func newSKIndex(tracker *history.Tracker) *skIndex {
	x := &skIndex{}
	x.reset(tracker)
	return x
}

// reset empties the index and re-binds it to tracker.
func (x *skIndex) reset(tracker *history.Tracker) {
	x.tracker = tracker
	x.full = make(map[media.Bytes]*rbtree.Tree[fullKey, media.ClipID])
	x.partial = make(map[media.Bytes]*rbtree.Tree[partialKey, media.ClipID])
	x.locs = x.locs[:0]
	x.pos = make([]int32, tracker.N()+1)
	for i := range x.pos {
		x.pos[i] = -1
	}
	x.sizesDesc = nil
}

// len returns the number of indexed resident clips.
func (x *skIndex) len() int { return len(x.locs) }

// has reports whether clip id is indexed.
func (x *skIndex) has(id media.ClipID) bool {
	return int(id) < len(x.pos) && x.pos[id] >= 0
}

// place records a newly indexed clip's location.
func (x *skIndex) place(loc location) {
	for int(loc.id) >= len(x.pos) {
		x.pos = append(x.pos, -1)
	}
	x.pos[loc.id] = int32(len(x.locs))
	x.locs = append(x.locs, loc)
}

// forget drops clip id's location; the last location moves into its place.
func (x *skIndex) forget(id media.ClipID) {
	i, last := x.pos[id], len(x.locs)-1
	x.locs[i] = x.locs[last]
	x.pos[x.locs[i].id] = i
	x.locs = x.locs[:last]
	x.pos[id] = -1
}

// classFor returns (creating if needed) the trees for a size class.
func (x *skIndex) classFor(size media.Bytes) (*rbtree.Tree[fullKey, media.ClipID], *rbtree.Tree[partialKey, media.ClipID]) {
	f, ok := x.full[size]
	if !ok {
		f = rbtree.New[fullKey, media.ClipID](lessFull)
		x.full[size] = f
		x.partial[size] = rbtree.New[partialKey, media.ClipID](lessPartial)
		x.sizesDesc = append(x.sizesDesc, size)
		sort.Slice(x.sizesDesc, func(i, j int) bool { return x.sizesDesc[i] > x.sizesDesc[j] })
	}
	return f, x.partial[size]
}

// index inserts a resident clip into the tree matching its current history.
func (x *skIndex) index(clip media.Clip) {
	f, pt := x.classFor(clip.Size)
	last, _ := x.tracker.LastTime(clip.ID)
	if kth, ok := x.tracker.KthLastTime(clip.ID); ok {
		key := fullKey{kth: kth, last: last, id: clip.ID}
		f.Put(key, clip.ID)
		x.place(location{id: clip.ID, size: clip.Size, isFull: true, fk: key})
		return
	}
	key := partialKey{last: last, id: clip.ID}
	pt.Put(key, clip.ID)
	x.place(location{id: clip.ID, size: clip.Size, pk: key})
}

// unindex removes a resident clip from its tree, reporting whether it was
// indexed.
func (x *skIndex) unindex(id media.ClipID) (location, bool) {
	if !x.has(id) {
		return location{}, false
	}
	loc := x.locs[x.pos[id]]
	if loc.isFull {
		x.full[loc.size].Delete(loc.fk)
	} else {
		x.partial[loc.size].Delete(loc.pk)
	}
	x.forget(id)
	return loc, true
}

// popBest removes and returns the current best victim.
func (x *skIndex) popBest(now vtime.Time) (media.ClipID, media.Bytes, bool) {
	// Incomplete-history clips first: infinite score; largest class wins,
	// then LRU within the class.
	for _, size := range x.sizesDesc {
		pt := x.partial[size]
		if pt.Len() == 0 {
			continue
		}
		key, id, _ := pt.Min()
		pt.Delete(key)
		x.forget(id)
		return id, size, true
	}
	// Otherwise compare one complete-history candidate per class.
	var (
		bestID    media.ClipID
		bestSize  media.Bytes
		bestKey   fullKey
		bestScore float64
		found     bool
	)
	for _, size := range x.sizesDesc {
		f := x.full[size]
		if f.Len() == 0 {
			continue
		}
		key, id, _ := f.Min()
		score := float64(now-key.kth) * float64(size)
		better := false
		switch {
		case !found:
			better = true
		case score != bestScore:
			better = score > bestScore
		case key.last != bestKey.last:
			better = key.last < bestKey.last
		default:
			better = id < bestID
		}
		if better {
			bestID, bestSize, bestKey, bestScore, found = id, size, key, score, true
		}
	}
	if !found {
		return 0, 0, false
	}
	x.full[bestSize].Delete(bestKey)
	x.forget(bestID)
	return bestID, bestSize, true
}
