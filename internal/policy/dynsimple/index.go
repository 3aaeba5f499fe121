package dynsimple

import (
	"sort"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/rbtree"
	"mediacache/internal/vtime"
)

// This file holds the indexed victim-selection path, the default since the
// scan's full sort of the resident set per Victims call made catalog-scale
// repositories unusable (the paper's Section 5 future-work item on
// tree-based victim identification).
//
// DYNSimple ranks victims by the estimated byte-freq λ_i/s_i where
// λ_i = count / (now − oldest tracked reference). The rank depends on the
// current time, so no single static order exists — but within one
// (size, tracked-count) class it does: for fixed count m and size s,
// bf = m / ((now − oldest) · s) ascends exactly as oldest ascends,
// independent of now. The index therefore keeps one red-black tree per
// (size, count) class ordered by (oldest, id); the per-class best candidate
// is the tree minimum, and the global phase-1 victim is chosen by comparing
// one candidate per class with the scan's exact comparator (byte-freq asc,
// size desc, id asc). With S distinct sizes and count ≤ K, there are at most
// S·(K+1) classes — for the paper's 6 sizes and K=2, 18 — so selection is
// O(S·K + log n) per victim instead of an O(n log n) sort per call.

// classKey identifies one static-order victim class.
type classKey struct {
	size  media.Bytes
	count int
}

// entryKey orders clips within a class: ascending oldest tracked reference =
// ascending byte-freq; equal oldest means equal byte-freq, where the scan's
// next tie-break (size is equal within a class) is the lower id.
type entryKey struct {
	oldest vtime.Time
	id     media.ClipID
}

func lessEntry(a, b entryKey) bool {
	if a.oldest != b.oldest {
		return a.oldest < b.oldest
	}
	return a.id < b.id
}

// dsLoc records a resident clip's class and key for O(log n) removal.
type dsLoc struct {
	class classKey
	key   entryKey
}

// indexClip inserts a resident clip into its current class tree.
func (p *Policy) indexClip(clip media.Clip) {
	count := p.tracker.Tracked(clip.ID)
	var oldest vtime.Time
	if t, ok := p.tracker.OldestTracked(clip.ID); ok {
		oldest = t
	}
	ck := classKey{size: clip.Size, count: count}
	tree := p.classes[ck]
	if tree == nil {
		tree = rbtree.New[entryKey, media.Clip](lessEntry)
		p.classes[ck] = tree
		p.order = append(p.order, ck)
		// Deterministic class iteration order (the global comparator is
		// total, so this only aids debugging and reproducible profiles).
		sort.Slice(p.order, func(i, j int) bool {
			if p.order[i].size != p.order[j].size {
				return p.order[i].size > p.order[j].size
			}
			return p.order[i].count < p.order[j].count
		})
	}
	key := entryKey{oldest: oldest, id: clip.ID}
	tree.Put(key, clip)
	p.loc[clip.ID] = dsLoc{class: ck, key: key}
}

// unindexClip removes a resident clip from its class tree, if indexed.
func (p *Policy) unindexClip(id media.ClipID) bool {
	loc, ok := p.loc[id]
	if !ok {
		return false
	}
	p.classes[loc.class].Delete(loc.key)
	delete(p.loc, id)
	return true
}

// popBest removes and returns the resident clip with the smallest estimated
// byte-freq, comparing one candidate per class with the scan's comparator.
func (p *Policy) popBest(now vtime.Time) (media.Clip, bool) {
	var (
		best   media.Clip
		bestBF float64
		bestCK classKey
		bestEK entryKey
		found  bool
	)
	for _, ck := range p.order {
		tree := p.classes[ck]
		if tree.Len() == 0 {
			continue
		}
		ek, clip, _ := tree.Min()
		bf := p.ByteFreq(clip, now)
		better := false
		switch {
		case !found:
			better = true
		case bf != bestBF:
			better = bf < bestBF
		case clip.Size != best.Size:
			better = clip.Size > best.Size
		default:
			better = clip.ID < best.ID
		}
		if better {
			best, bestBF, bestCK, bestEK, found = clip, bf, ck, ek, true
		}
	}
	if !found {
		return media.Clip{}, false
	}
	p.classes[bestCK].Delete(bestEK)
	delete(p.loc, best.ID)
	return best, true
}

// victimsIndexed runs Figure 4's two-phase selection against the class
// index: phase 1 pops ascending-byte-freq victims until the incoming clip
// fits, phase 2 re-orders the gathered set by descending size and spares the
// tail once enough space is free. Spared clips stay resident, so their index
// entries are restored; returned victims were already popped, making the
// engine's OnEvict a no-op for them.
func (p *Policy) victimsIndexed(view core.ResidentView, need media.Bytes, now vtime.Time) []media.ClipID {
	// Victims the previous call popped leave the index at once, but a
	// segmented engine may only trim one, or stop before reaching it, and
	// then it stays resident without OnEvict or OnInsert. Re-index those
	// under their current history — exactly what the adoption walk below
	// would do for them, at the cost of the previous batch only.
	for _, c := range p.popped {
		if _, ok := p.loc[c.ID]; !ok && view.Resident(c.ID) {
			p.indexClip(c)
		}
	}
	p.popped = p.popped[:0]
	if len(p.loc) != view.NumResident() {
		// A clip became resident without OnInsert (direct warm placement):
		// adopt it under its current history.
		view.ForEachResident(func(c media.Clip) bool {
			if _, ok := p.loc[c.ID]; !ok {
				p.indexClip(c)
			}
			return true
		})
	}
	p.gathered = p.gathered[:0]
	var gatheredBytes media.Bytes
	for gatheredBytes < need {
		c, ok := p.popBest(now)
		if !ok {
			break
		}
		p.gathered = append(p.gathered, c)
		gatheredBytes += c.Size
	}
	p.out = p.out[:0]
	if !p.refine {
		for _, c := range p.gathered {
			p.out = append(p.out, c.ID)
		}
		p.popped = append(p.popped, p.gathered...)
		if len(p.out) == 0 {
			return nil
		}
		return p.out
	}
	sort.Slice(p.gathered, func(i, j int) bool {
		if p.gathered[i].Size != p.gathered[j].Size {
			return p.gathered[i].Size > p.gathered[j].Size
		}
		return p.gathered[i].ID < p.gathered[j].ID
	})
	var freed media.Bytes
	spared := len(p.gathered)
	for i, c := range p.gathered {
		if freed >= need {
			spared = i
			break
		}
		p.out = append(p.out, c.ID)
		freed += c.Size
	}
	for _, c := range p.gathered[spared:] {
		p.indexClip(c)
	}
	p.popped = append(p.popped, p.gathered[:spared]...)
	if len(p.out) == 0 {
		return nil
	}
	return p.out
}
