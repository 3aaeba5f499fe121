// Package igd implements Interval-Based GreedyDual (IGD), one of the
// paper's three novel techniques (Section 4.2).
//
// IGD extends GreedyDual to consider recency so that equi-sized repositories
// are supported effectively. Like DYNSimple it maintains the last K
// reference times of every clip; at time t the aging interval
// Δ_K(x, t) = t − t_K(x) is the span back to the K-th most recent reference.
// The cost function becomes
//
//	H(x) = L(x) + nref(x) / (Δ_K(x, t) · size(x))
//
// where nref(x) counts references since clip x became resident (reset to
// zero on swap-out, like GreedyDual-Freq), and L(x) is the inflation value
// captured when x was last touched. Crucially Δ_K is evaluated at victim-
// selection time: a previously popular clip that stops receiving hits sees
// its Δ grow and its priority sink, so IGD "forgets" stale popularity —
// the property that makes it adapt where GreedyDual-Freq cannot (Figure 7).
//
// Because priorities drift with time, victim selection scans the resident
// set (O(n), n = resident clips; the paper's Section 5 leaves tree-based
// structures as future work). The scan runs over packed per-resident slots
// holding every input of the score, so it is one sequential pass over a
// contiguous array. An ordered index cannot prune it: every base L(x) is at
// most the inflation L, and the winning score is usually at least L, so a
// branch-and-bound walk in base order visits nearly every resident anyway.
// The global inflation L rises to each evicted priority exactly as in
// GreedyDual.
package igd

import (
	"fmt"
	"slices"

	"mediacache/internal/core"
	"mediacache/internal/history"
	"mediacache/internal/media"
	"mediacache/internal/randutil"
	"mediacache/internal/vtime"
)

// DefaultK is the history depth used by the paper's experiments (same
// tracker depth as DYNSimple's default).
const DefaultK = 2

// slot holds one resident clip's score inputs.
type slot struct {
	id   media.ClipID
	nref uint64
	base float64
	// size is the byte count the score divides by: the resident byte total
	// of a partially resident clip under a segment-granular cache
	// (core.SegmentAware), the full clip size otherwise.
	size float64
	// kth is t_K(x), the K-th most recent reference time, valid when hasKth
	// is set; Record refreshes it after every reference.
	kth    vtime.Time
	hasKth bool
	// frozen is the touch-time priority of the FrozenAging ablation.
	frozen float64
}

// score returns the slot's priority L(x) + nref(x)/(Δ_K(x,now)·size(x)).
// Without K references Δ is infinite and the score is the base alone.
func (s *slot) score(now vtime.Time) float64 {
	if !s.hasKth {
		return s.base
	}
	delta := float64(now - s.kth)
	if delta <= 0 {
		delta = 1 // the K-th reference happened this tick; clamp to one tick
	}
	return s.base + float64(s.nref)/(delta*s.size)
}

// Policy is the IGD technique. It implements core.Policy.
type Policy struct {
	k    int
	n    int
	seed uint64

	tracker *history.Tracker
	src     *randutil.Source

	inflation float64
	// slots packs the resident clips in no particular order; pos[id] is the
	// index of clip id's slot, or -1 when it has none.
	slots []slot
	pos   []int32

	// freezeAging disables selection-time Δ evaluation and freezes the
	// priority at touch time instead — the BenchmarkIGDAging ablation.
	freezeAging bool

	ties []media.ClipID // Victims' reusable tie buffer
	out  []media.ClipID // Victims' reusable result
}

var _ core.Policy = (*Policy)(nil)

// Option configures a Policy.
type Option func(*Policy)

// FrozenAging computes each clip's priority once at touch time instead of
// re-evaluating Δ_K at victim selection. Used by the aging ablation.
func FrozenAging() Option {
	return func(p *Policy) { p.freezeAging = true }
}

// New returns an IGD policy for a repository of n clips with history depth
// k and the given tie-break seed.
func New(n, k int, seed uint64, opts ...Option) (*Policy, error) {
	if n <= 0 {
		return nil, fmt.Errorf("igd: repository size must be positive, got %d", n)
	}
	if k <= 0 {
		return nil, fmt.Errorf("igd: K must be positive, got %d", k)
	}
	p := &Policy{k: k, n: n, seed: seed}
	for _, o := range opts {
		o(p)
	}
	p.Reset()
	return p, nil
}

// MustNew is like New but panics on error; for experiment setup.
func MustNew(n, k int, seed uint64, opts ...Option) *Policy {
	p, err := New(n, k, seed, opts...)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements core.Policy.
func (p *Policy) Name() string {
	if p.freezeAging {
		return fmt.Sprintf("IGD(K=%d,frozen)", p.k)
	}
	return fmt.Sprintf("IGD(K=%d)", p.k)
}

// K returns the history depth.
func (p *Policy) K() int { return p.k }

// Inflation returns the current inflation value L.
func (p *Policy) Inflation() float64 { return p.inflation }

// NRef returns the reference count of a resident clip since residency.
func (p *Policy) NRef(id media.ClipID) uint64 {
	if s := p.slot(id); s != nil {
		return s.nref
	}
	return 0
}

// Tracker exposes the underlying reference history, for reading: the
// policy caches each resident's K-th reference time, so mutating the
// tracker directly would leave those copies stale.
func (p *Policy) Tracker() *history.Tracker { return p.tracker }

// Score returns the clip's current priority
// L(x) + nref(x)/(Δ_K(x,now)·size(x)). Clips with fewer than K references
// have infinite Δ and contribute nothing beyond their base inflation.
func (p *Policy) Score(c media.Clip, now vtime.Time) float64 {
	if s := p.slot(c.ID); s != nil {
		if p.freezeAging {
			return s.frozen
		}
		return s.score(now)
	}
	// Not resident: zero base and nref, full size.
	s := slot{id: c.ID, size: float64(c.Size)}
	s.kth, s.hasKth = p.tracker.KthLastTime(c.ID)
	return s.score(now)
}

// slot returns clip id's slot, or nil when it has none.
func (p *Policy) slot(id media.ClipID) *slot {
	if int(id) >= len(p.pos) || p.pos[id] < 0 {
		return nil
	}
	return &p.slots[p.pos[id]]
}

// touch re-bases a slot at the current inflation after its score inputs
// changed; the frozen-aging ablation also re-freezes its priority.
func (p *Policy) touch(s *slot, now vtime.Time) {
	s.base = p.inflation
	if p.freezeAging {
		s.frozen = s.score(now)
	}
}

// OnResidentBytes implements core.SegmentAware. Scores are evaluated at
// victim-selection time, so recording the new occupancy suffices; only the
// frozen-aging ablation refreshes its cached score.
func (p *Policy) OnResidentBytes(clip media.Clip, resident media.Bytes, now vtime.Time) {
	s := p.slot(clip.ID)
	if s == nil {
		return
	}
	s.size = float64(clip.Size)
	if resident > 0 && resident < clip.Size {
		s.size = float64(resident)
	}
	if p.freezeAging {
		s.frozen = s.score(now)
	}
}

// Record implements core.Policy: every reference updates the history; a hit
// additionally increments nref and re-bases the clip at the current
// inflation.
func (p *Policy) Record(clip media.Clip, now vtime.Time, hit bool) {
	p.tracker.Observe(clip.ID, now)
	s := p.slot(clip.ID)
	switch {
	case s != nil:
		s.kth, s.hasKth = p.tracker.KthLastTime(clip.ID)
		if hit {
			s.nref++
			p.touch(s, now)
		}
	case hit:
		// A hit on a clip that became resident without OnInsert: its first
		// counted reference, based at the current inflation.
		p.adopt(clip, now)
	}
}

// Admit implements core.Policy.
func (p *Policy) Admit(media.Clip, vtime.Time) bool { return true }

// Victims implements core.Policy: evict the resident clip with minimum
// current score, ties broken uniformly at random in ascending id order; L
// rises to the evicted score.
func (p *Policy) Victims(_ media.Clip, view core.ResidentView, _ media.Bytes, now vtime.Time) []media.ClipID {
	if len(p.slots) != view.NumResident() {
		// A clip became resident without OnInsert: adopt it at the current
		// inflation.
		for c := range view.Residents() {
			if p.slot(c.ID) == nil {
				p.adopt(c, now)
			}
		}
	}
	if len(p.slots) == 0 {
		return nil
	}
	var minH float64
	ties := p.ties[:0]
	for i := range p.slots {
		s := &p.slots[i]
		h := s.frozen
		if !p.freezeAging {
			h = s.score(now)
		}
		switch {
		case i == 0 || h < minH:
			minH = h
			ties = append(ties[:0], s.id)
		case h == minH:
			ties = append(ties, s.id)
		}
	}
	p.ties = ties
	if minH > p.inflation {
		p.inflation = minH
	}
	victim := ties[0]
	if len(ties) > 1 {
		slices.Sort(ties)
		victim = ties[p.src.Intn(len(ties))]
	}
	p.out = append(p.out[:0], victim)
	return p.out
}

// adopt gives a newly resident clip its slot: nref 1 (the inserting
// reference), based at the current inflation.
func (p *Policy) adopt(c media.Clip, now vtime.Time) {
	for int(c.ID) >= len(p.pos) {
		p.pos = append(p.pos, -1)
	}
	p.pos[c.ID] = int32(len(p.slots))
	p.slots = append(p.slots, slot{id: c.ID, nref: 1, size: float64(c.Size)})
	s := &p.slots[len(p.slots)-1]
	s.kth, s.hasKth = p.tracker.KthLastTime(c.ID)
	p.touch(s, now)
}

// OnInsert implements core.Policy: nref starts at 1 (the inserting
// reference) and the clip is based at the current inflation.
func (p *Policy) OnInsert(clip media.Clip, now vtime.Time) {
	p.adopt(clip, now)
}

// OnEvict implements core.Policy: the residency reference count is
// forgotten (Section 4.2: "IGD forgets nref(x) when clip x is swapped out");
// the K-reference history survives. The last slot moves into the freed one.
func (p *Policy) OnEvict(id media.ClipID, _ vtime.Time) {
	if p.slot(id) == nil {
		return
	}
	i, last := p.pos[id], len(p.slots)-1
	p.slots[i] = p.slots[last]
	p.pos[p.slots[i].id] = i
	p.slots = p.slots[:last]
	p.pos[id] = -1
}

// Reset implements core.Policy.
func (p *Policy) Reset() {
	p.inflation = 0
	p.tracker = history.NewTracker(p.n, p.k)
	p.src = randutil.NewSource(p.seed)
	p.slots = p.slots[:0]
	p.pos = make([]int32, p.n+1)
	for i := range p.pos {
		p.pos[i] = -1
	}
}
