package shard

// pipeline.go is the pool's one request path. Every reference is a
// BatchItem, and every BatchItem is a byte range: an unranged item is the
// range [0, size) of its clip — the whole clip as a partial clip with its
// full chunk count (the gLRU model, arXiv 1806.10853). Request and
// RequestRange are batches of one; RequestBatch groups its items by owning
// shard and the groups proceed concurrently. Each group then runs serve:
//
//  1. hit: on unsegmented pools, a group whose every item is a whole-clip
//     hit in the published residency view only enqueues policy touches and
//     never takes the engine lock (readpath.go).
//  2. probe: under the shard lock, the flight keys the group misses —
//     (clip, wholeClip) on unsegmented pools, (clip, segment) for every
//     missing segment of the range on segmented ones — each collected once.
//  3. fetch: outside the lock, one flight per key, so concurrent requests
//     for the same clip or segment share one link consultation.
//  4. apply: under the lock again, the results go into the shard's staging
//     slot and the items run through the engine in submission order; the
//     engine's fetch hook (stagedFetch) answers from the slot.
//
// Without a fetch hook steps 2–3 vanish and the group runs under one lock
// acquisition.

import (
	"sync"

	"mediacache/internal/core"
	"mediacache/internal/media"
)

// BatchItem is one reference in a RequestBatch call.
type BatchItem struct {
	// ID is the referenced clip.
	ID media.ClipID
	// Ranged selects the partial-content form: bytes [Start, Start+Length)
	// are referenced, with negative Length meaning "to the end of the
	// clip". When false the whole clip is referenced and Start/Length are
	// ignored.
	Ranged bool
	Start  media.Bytes
	Length media.Bytes
}

// BatchResult is the outcome of one BatchItem, in the same position.
type BatchResult struct {
	// Outcome classifies the servicing. For ranged items it is
	// Range.Outcome, duplicated here so callers can switch uniformly.
	Outcome core.Outcome
	// Range carries the byte-level accounting for ranged items; zero for
	// whole-clip items.
	Range core.RangeResult
	// Err is the per-item engine error, if any (unknown clip, policy
	// misbehaviour). Other items in the batch are unaffected.
	Err error
}

// Request services a reference to clip id on the owning shard and returns
// the outcome, exactly as core.Cache.Request does on an unsharded cache.
//
// Without a fetch hook the request runs entirely under the shard lock.
// With one, a miss releases the lock for the duration of the (possibly
// shared) fetch so slow fetches never serialize the shard, then re-locks
// and hands the result to the engine. A clip that became resident while
// the fetch was in flight is simply a hit — the fetched bytes are the same
// bytes a waiter would have received.
func (p *Pool) Request(id media.ClipID) (core.Outcome, error) {
	items := [1]BatchItem{{ID: id}}
	var out [1]BatchResult
	p.serve(p.shards[p.ShardFor(id)], items[:], out[:])
	return out[0].Outcome, out[0].Err
}

// RequestRange services a reference to bytes [start, start+length) of clip
// id on the owning shard, exactly as core.Cache.RequestRange does on an
// unsharded cache. A negative length means "to the end of the clip".
//
// With a fetch hook, the range's missing segments are fetched outside the
// shard lock — one flight per (clip, segment), so concurrent requests for
// overlapping ranges share the transfer of every segment they both miss
// while disjoint ranges proceed in parallel.
func (p *Pool) RequestRange(id media.ClipID, start, length media.Bytes) (core.RangeResult, error) {
	items := [1]BatchItem{{ID: id, Ranged: true, Start: start, Length: length}}
	var out [1]BatchResult
	p.serve(p.shards[p.ShardFor(id)], items[:], out[:])
	return out[0].Range, out[0].Err
}

// RequestBatch services an ordered list of references and returns one
// result per item, positionally. Items are routed to their owning shards
// and shard groups proceed concurrently; items within a shard group are
// serviced in submission order. Outcomes and statistics are exactly those
// of issuing the items individually — the batch form only amortizes lock
// acquisitions and, like Request, coalesces concurrent fetches of the same
// clip or segment through the flight group.
func (p *Pool) RequestBatch(items []BatchItem) []BatchResult {
	out := make([]BatchResult, len(items))
	if len(items) == 0 {
		return out
	}
	p.batches.Add(1)
	groups := make([][]int, len(p.shards))
	for i := range items {
		si := p.ShardFor(items[i].ID)
		groups[si] = append(groups[si], i)
	}
	if si := p.ShardFor(items[0].ID); len(groups[si]) == len(items) {
		// One shard owns every item: serve them in place.
		p.serve(p.shards[si], items, out)
		return out
	}
	var wg sync.WaitGroup
	for si, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(s *poolShard, idxs []int) {
			defer wg.Done()
			group := make([]BatchItem, len(idxs))
			res := make([]BatchResult, len(idxs))
			for k, i := range idxs {
				group[k] = items[i]
			}
			p.serve(s, group, res)
			for k, i := range idxs {
				out[i] = res[k]
			}
		}(p.shards[si], idxs)
	}
	wg.Wait()
	return out
}

// serve runs one shard's group through hit → probe → fetch → apply, writing
// items[i]'s result to out[i].
func (p *Pool) serve(s *poolShard, items []BatchItem, out []BatchResult) {
	if p.fastPath && p.fastHitsOK(s, items) {
		p.recordTouches(s, items)
		for i := range out {
			out[i] = BatchResult{Outcome: core.Hit}
		}
		return
	}
	p.lockDrained(s)
	if p.fetch != nil || p.segFetch != nil {
		var buf [4]fetchJob
		if jobs := p.probeLocked(s, items, buf[:0]); len(jobs) > 0 {
			// The engine stamps fetches with the servicing request's tick;
			// the best estimate before re-locking is the next tick of this
			// shard's clock.
			now := s.cache.Now() + 1
			s.mu.Unlock()
			p.fetchAll(jobs, now)
			p.lockDrained(s)
			for _, j := range jobs {
				s.staged[j.key] = j.err
			}
		}
	}
	for i := range items {
		it := &items[i]
		if it.Ranged {
			res, err := s.cache.RequestRange(it.ID, it.Start, it.Length)
			out[i] = BatchResult{Outcome: res.Outcome, Range: res, Err: err}
		} else {
			o, err := s.cache.Request(it.ID)
			out[i] = BatchResult{Outcome: o, Err: err}
		}
	}
	if len(s.staged) > 0 {
		clear(s.staged)
	}
	s.mu.Unlock()
}

// probeLocked appends to jobs one fetch per flight key the group misses, in
// item order and each key once; the caller holds s.mu. Items that never
// reach the engine's fetch path — unknown clips, bad ranges, clips larger
// than the shard — add none. The staging slot doubles as the seen-set and
// is empty again on return.
func (p *Pool) probeLocked(s *poolShard, items []BatchItem, jobs []fetchJob) []fetchJob {
	for i := range items {
		it := &items[i]
		clip, known := p.repo.Lookup(it.ID)
		if !known || clip.Size > s.cache.Capacity() {
			continue
		}
		start, length := media.Bytes(0), clip.Size
		if it.Ranged {
			start, length = it.Start, it.Length
		}
		if start < 0 || start >= clip.Size {
			continue
		}
		if length < 0 || start+length > clip.Size {
			length = clip.Size - start
		}
		s.missBuf = s.missBuf[:0]
		switch {
		case p.segSize > 0:
			s.missBuf = s.cache.AppendMissingSegments(s.missBuf, clip.ID,
				int32(start/p.segSize), int32((start+length-1)/p.segSize))
		case !s.cache.Resident(clip.ID):
			s.missBuf = append(s.missBuf, wholeClip)
		}
		for _, seg := range s.missBuf {
			key := flightKey{id: clip.ID, seg: seg}
			if _, dup := s.staged[key]; !dup {
				s.staged[key] = nil
				jobs = append(jobs, fetchJob{key: key, clip: clip})
			}
		}
	}
	if len(s.staged) > 0 {
		clear(s.staged)
	}
	return jobs
}
