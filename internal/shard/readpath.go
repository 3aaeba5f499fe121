package shard

// readpath.go is the lock-reduced hit path. On unsegmented pools every
// shard engine publishes its resident set into a core.ResidencyMirror
// (updated under the shard lock, readable without it). A request whose clip
// is in the published view is a hit: the bytes it would stream are the ones
// the view's linearization point guarantees, so the request returns
// immediately and only enqueues a "touch" — the deferred policy Record,
// clock tick and hit statistics the engine replays later via
// core.Cache.ApplyHit.
//
// Touches accumulate in a per-shard buffer guarded by its own short mutex
// and drain under ONE engine-lock acquisition, either when the buffer
// reaches touchBatchSize or before any code path that reads or mutates
// engine state under the lock (miss servicing, Stats, Snapshot, Reset,
// Restore, ...). Draining before every engine interaction preserves the
// exact Stats identities and, under serial driving, byte-identical policy
// decisions: a hit's Record always lands before the next engine-path
// request is serviced, exactly as in the serialized order.
//
// Under concurrent driving the linearization is coarser — a touch can land
// after an unrelated miss on the same shard that arrived later — which is
// one of the documented determinism caveats (DESIGN.md §15): any
// single-shard interleaving of the same multiset of requests is a legal
// serialized order, and the stats identities hold in all of them.

import (
	"mediacache/internal/media"
	"mediacache/internal/vtime"
)

// touchBatchSize is the drain threshold for the pending-touch buffer. Large
// enough to amortize the engine lock across hundreds of hits, small enough
// that policy recency signals lag by at most a few hundred references on a
// hit-heavy shard.
const touchBatchSize = 256

// fastHitsOK reports whether the lock-free hit path may serve every item
// of a shard group from the published residency view: each must be a
// whole-clip reference to a clip the view holds. Without TTL, published
// residency is enough. With TTL the touch a hit enqueues will replay at
// some future engine tick, which must not exceed the clip's deadline; item
// k's replay tick is estimated as the mirror's published clock plus every
// touch already pending plus the k touches the group enqueues before it
// plus one. Under serial driving the estimate is exact, so a 1-shard pool
// with TTL stays byte-identical to the bare engine. Under concurrent
// driving it can be off in either direction by in-flight touches — an
// overestimate falls through to the engine path (correct, just slower), an
// underestimate serves a hit the replay then counts under ApplyHit's
// hit-unconditionally contract — the same staleness class as the mirror's
// residency answers (DESIGN.md §15).
func (p *Pool) fastHitsOK(s *poolShard, items []BatchItem) bool {
	for k := range items {
		it := &items[k]
		if it.Ranged {
			return false
		}
		if p.ttl == 0 {
			if !s.mirror.Resident(it.ID) {
				return false
			}
			continue
		}
		dl, ok := s.mirror.Deadline(it.ID)
		if !ok || dl != 0 && s.mirror.Clock()+vtime.Time(s.pending.Load()+int64(k)+1) > dl {
			return false
		}
	}
	return true
}

// recordTouches enqueues a group of fast-path hits under one buffer-lock
// acquisition and drains the buffer, at most once, when it reaches the
// batch threshold.
func (p *Pool) recordTouches(s *poolShard, items []BatchItem) {
	p.fastHits.Add(uint64(len(items)))
	s.touchMu.Lock()
	s.pending.Add(int64(len(items)))
	for i := range items {
		s.touches = append(s.touches, items[i].ID)
	}
	if len(s.touches) < touchBatchSize {
		s.touchMu.Unlock()
		return
	}
	batch := s.touches
	s.touches = s.touchSpare[:0]
	s.touchSpare = nil
	s.touchMu.Unlock()

	s.mu.Lock()
	p.applyTouches(s, batch)
	s.mu.Unlock()
	p.recycleTouchBuf(s, batch)
}

// recycleTouchBuf returns a drained buffer to the shard as the standby
// swap target, unless a concurrent drain already parked one.
func (p *Pool) recycleTouchBuf(s *poolShard, batch []media.ClipID) {
	s.touchMu.Lock()
	if s.touchSpare == nil {
		s.touchSpare = batch[:0]
	}
	s.touchMu.Unlock()
}

// drainLocked replays every pending touch into the engine. The caller holds
// s.mu; the buffer lock is taken only long enough to swap the buffer out,
// so fast-path appends proceed while the batch applies.
func (p *Pool) drainLocked(s *poolShard) {
	if !p.fastPath {
		return
	}
	s.touchMu.Lock()
	if len(s.touches) == 0 {
		s.touchMu.Unlock()
		return
	}
	batch := s.touches
	s.touches = s.touchSpare[:0]
	s.touchSpare = nil
	s.touchMu.Unlock()

	p.applyTouches(s, batch)
	p.recycleTouchBuf(s, batch)
}

// applyTouches replays a swapped-out touch batch under the engine lock
// (held by the caller).
func (p *Pool) applyTouches(s *poolShard, batch []media.ClipID) {
	p.touchFlushes.Add(1)
	for _, id := range batch {
		// ApplyHit fails only for ids outside the repository or on
		// segmented engines; touches are recorded from the published view
		// of an unsegmented engine, so neither can occur.
		_ = s.cache.ApplyHit(id)
	}
	// Decrement only after the replay: while the batch is in flight the
	// TTL fast path keeps overestimating the replay tick, which at worst
	// diverts a borderline hit to the engine path.
	s.pending.Add(-int64(len(batch)))
}

// lockDrained acquires the shard lock and replays pending touches, so the
// caller observes (and mutates) engine state with every fast-path hit
// accounted. Every engine interaction goes through this.
func (p *Pool) lockDrained(s *poolShard) {
	s.mu.Lock()
	p.drainLocked(s)
}

// lockAllDrained acquires every shard lock in index order and drains each,
// giving pool-wide readers (Stats, Snapshot, ...) a consistent view with no
// touches outstanding.
func (p *Pool) lockAllDrained() {
	p.lockAll()
	for _, s := range p.shards {
		p.drainLocked(s)
	}
}

// FastPathHits returns how many hits were served off the published
// residency view without taking a shard lock.
func (p *Pool) FastPathHits() uint64 { return p.fastHits.Load() }

// TouchFlushes returns how many batched touch drains have replayed
// fast-path hits into the shard engines.
func (p *Pool) TouchFlushes() uint64 { return p.touchFlushes.Load() }

// Batches returns how many RequestBatch calls the pool has served.
func (p *Pool) Batches() uint64 { return p.batches.Load() }
