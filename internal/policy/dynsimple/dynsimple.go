// Package dynsimple implements Dynamic Simple (DYNSimple), the paper's
// primary contribution (Section 4.1, Figure 4).
//
// DYNSimple transforms the off-line Simple technique into an on-line one by
// estimating each clip's frequency of access from its last K reference
// times: the arrival rate of clip i at time t is λ_i = K / Δ_K(i, t), and
// the estimated frequency is f̂_i = λ_i / Σ_j λ_j. Because the normalizing
// sum is common to all clips, victims are ranked directly by the estimated
// byte-freq λ_i / s_i.
//
// Victim selection follows Figure 4's two-phase algorithm:
//
//  1. Sort the resident clips by ascending λ_i/s_i and greedily gather
//     victims until the incoming clip fits.
//  2. Re-sort the gathered victims by descending size and evict in that
//     order, stopping as soon as enough space is free — sparing small
//     low-value clips that turned out not to be needed.
//
// Reference history is kept for all clips, resident or not (the paper
// quantifies the overhead at 4 MB for a million clips with K=2, and proposes
// five-minute-rule style pruning as future work — see package fiverule).
package dynsimple

import (
	"fmt"
	"sort"

	"mediacache/internal/core"
	"mediacache/internal/history"
	"mediacache/internal/media"
	"mediacache/internal/rbtree"
	"mediacache/internal/vtime"
)

// DefaultK is the history depth the paper recommends ("we believe K=2 is
// sufficient in most cases", Section 4.1).
const DefaultK = 2

// Policy is the DYNSimple technique. It implements core.Policy.
type Policy struct {
	k       int
	n       int
	tracker *history.Tracker
	// refine enables Figure 4's second phase. Disabling it is the
	// BenchmarkDYNSimpleRefinement ablation: victims are then evicted in
	// plain ascending byte-freq order.
	refine bool

	// scan disables the class index and restores the original
	// sort-per-Victims-call selection (the differential-test baseline).
	scan     bool
	classes  map[classKey]*rbtree.Tree[entryKey, media.Clip]
	order    []classKey
	loc      map[media.ClipID]dsLoc
	gathered []media.Clip
	out      []media.ClipID
	// popped holds the previous Victims call's returned victims, which
	// left the index when popped; see victimsIndexed.
	popped []media.Clip
}

var _ core.Policy = (*Policy)(nil)

// Option configures a Policy.
type Option func(*Policy)

// WithoutRefinement disables the size-descending victim refinement phase
// (ablation of the Figure 4 pseudo-code's second loop).
func WithoutRefinement() Option {
	return func(p *Policy) { p.refine = false }
}

// New returns a DYNSimple policy for a repository of n clips estimating
// frequencies from the last k references.
func New(n, k int, opts ...Option) (*Policy, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dynsimple: repository size must be positive, got %d", n)
	}
	if k <= 0 {
		return nil, fmt.Errorf("dynsimple: K must be positive, got %d", k)
	}
	p := &Policy{
		k:       k,
		n:       n,
		tracker: history.NewTracker(n, k),
		refine:  true,
		classes: make(map[classKey]*rbtree.Tree[entryKey, media.Clip]),
		loc:     make(map[media.ClipID]dsLoc),
	}
	for _, o := range opts {
		o(p)
	}
	return p, nil
}

// Scan switches the policy to the original sort-per-call victim selection;
// decisions are identical either way.
func (p *Policy) Scan() *Policy { p.scan = true; return p }

// MustNew is like New but panics on error; for experiment setup.
func MustNew(n, k int, opts ...Option) *Policy {
	p, err := New(n, k, opts...)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements core.Policy.
func (p *Policy) Name() string {
	if !p.refine {
		return fmt.Sprintf("DYNSimple(K=%d,no-refine)", p.k)
	}
	return fmt.Sprintf("DYNSimple(K=%d)", p.k)
}

// K returns the history depth.
func (p *Policy) K() int { return p.k }

// Tracker exposes the underlying reference history.
func (p *Policy) Tracker() *history.Tracker { return p.tracker }

// EstimatedFrequencies returns the current f̂ vector (Section 4.1), indexed
// by clip id-1.
func (p *Policy) EstimatedFrequencies(now vtime.Time) []float64 {
	return p.tracker.EstimatedFrequencies(now)
}

// ByteFreq returns the estimated per-byte access rate λ_i / s_i used to rank
// victims. Normalization by the total arrival rate is omitted since it does
// not affect the ordering.
func (p *Policy) ByteFreq(c media.Clip, now vtime.Time) float64 {
	return p.tracker.Rate(c.ID, now) / float64(c.Size)
}

// Record implements core.Policy. In indexed mode a resident clip is re-keyed
// under its post-reference (count, oldest) class position.
func (p *Policy) Record(clip media.Clip, now vtime.Time, _ bool) {
	if !p.scan && p.unindexClip(clip.ID) {
		p.tracker.Observe(clip.ID, now)
		p.indexClip(clip)
		return
	}
	p.tracker.Observe(clip.ID, now)
}

// Admit implements core.Policy: every referenced clip is materialized
// (Section 2's default assumption).
func (p *Policy) Admit(media.Clip, vtime.Time) bool { return true }

// Victims implements core.Policy using the two-phase Figure 4 algorithm. In
// indexed mode (the default) phase 1 pops per-class tree minima instead of
// sorting the whole resident set; decisions match the scan exactly.
func (p *Policy) Victims(_ media.Clip, view core.ResidentView, need media.Bytes, now vtime.Time) []media.ClipID {
	if !p.scan {
		return p.victimsIndexed(view, need, now)
	}
	candidates := core.CollectResidents(view)
	// Phase 1: ascending estimated byte-freq; ties prefer the larger clip,
	// then the lower id, keeping runs deterministic.
	sort.Slice(candidates, func(i, j int) bool {
		bi, bj := p.ByteFreq(candidates[i], now), p.ByteFreq(candidates[j], now)
		if bi != bj {
			return bi < bj
		}
		if candidates[i].Size != candidates[j].Size {
			return candidates[i].Size > candidates[j].Size
		}
		return candidates[i].ID < candidates[j].ID
	})
	var victims []media.Clip
	var gathered media.Bytes
	for _, c := range candidates {
		if gathered >= need {
			break
		}
		victims = append(victims, c)
		gathered += c.Size
	}
	if !p.refine {
		out := make([]media.ClipID, len(victims))
		for i, c := range victims {
			out[i] = c.ID
		}
		return out
	}
	// Phase 2: evict in descending size order, stopping once enough space is
	// free so that unneeded small victims are spared.
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].Size != victims[j].Size {
			return victims[i].Size > victims[j].Size
		}
		return victims[i].ID < victims[j].ID
	})
	var out []media.ClipID
	var freed media.Bytes
	for _, c := range victims {
		if freed >= need {
			break
		}
		out = append(out, c.ID)
		freed += c.Size
	}
	return out
}

// OnInsert implements core.Policy: the new resident enters the class index.
func (p *Policy) OnInsert(clip media.Clip, _ vtime.Time) {
	if !p.scan {
		p.indexClip(clip)
	}
}

// OnEvict implements core.Policy. History survives eviction — that is the
// point of DYNSimple's non-resident bookkeeping; only the index entry is
// dropped (a no-op for victims popBest already removed).
func (p *Policy) OnEvict(id media.ClipID, _ vtime.Time) {
	if !p.scan {
		p.unindexClip(id)
	}
}

// Reset implements core.Policy.
func (p *Policy) Reset() {
	p.tracker = history.NewTracker(p.n, p.k)
	p.classes = make(map[classKey]*rbtree.Tree[entryKey, media.Clip])
	p.order = nil
	p.loc = make(map[media.ClipID]dsLoc)
	p.gathered = p.gathered[:0]
	p.out = p.out[:0]
	p.popped = p.popped[:0]
}
