package shard

import (
	"sync"
	"sync/atomic"

	"mediacache/internal/media"
	"mediacache/internal/vtime"
)

// flightKey identifies one coalescable fetch: a whole clip (seg == wholeClip)
// or one segment of a clip under a segmented pool. Keying per segment lets
// two requests for disjoint ranges of the same clip fetch in parallel while
// still sharing any segment they both miss.
type flightKey struct {
	id  media.ClipID
	seg int32
}

// wholeClip is the flightKey segment index of an unsegmented fetch.
const wholeClip int32 = -1

// flightGroup coalesces concurrent fetches for the same key: the first
// requester becomes the leader and executes the fetch; requesters arriving
// while it is in flight wait for the leader's result instead of fetching
// again. It is a minimal single-purpose variant of the well-known
// singleflight pattern, keyed by (clip ID, segment index).
type flightGroup struct {
	mu sync.Mutex
	m  map[flightKey]*flightCall
	// free holds settled calls whose every waiter has read the result;
	// leaders reuse them, so a steady miss stream allocates no flight state.
	free []*flightCall

	// coalesced counts joins of an already in-flight fetch; it is
	// incremented at join time (before waiting) so tests can observe that
	// waiters have piled up while the leader is still fetching.
	coalesced atomic.Uint64
}

// flightCall is one in-flight fetch.
type flightCall struct {
	settled sync.WaitGroup // released once the leader has written err
	err     error
	// waiters counts joined requesters that have not yet read err; guarded
	// by the group's mu. The call is recycled when it drops to zero.
	waiters int
}

// init prepares the group's map; must be called before the first do.
func (g *flightGroup) init() {
	g.m = make(map[flightKey]*flightCall)
}

// do executes fn for key, unless a fetch for key is already in flight, in
// which case it waits for that fetch and returns its error. The call is
// removed from the group before its waiters are released, so a request
// arriving after the result is settled starts a fresh fetch — results are
// shared only within one overlapping burst, never cached.
func (g *flightGroup) do(key flightKey, fn func() error) error {
	g.mu.Lock()
	if c, inFlight := g.m[key]; inFlight {
		c.waiters++
		g.coalesced.Add(1)
		g.mu.Unlock()
		c.settled.Wait()
		err := c.err
		g.mu.Lock()
		if c.waiters--; c.waiters == 0 {
			g.free = append(g.free, c)
		}
		g.mu.Unlock()
		return err
	}
	var c *flightCall
	if n := len(g.free); n > 0 {
		c, g.free = g.free[n-1], g.free[:n-1]
	} else {
		c = new(flightCall)
	}
	c.settled.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	err := fn()

	g.mu.Lock()
	delete(g.m, key)
	c.err = err
	c.settled.Done()
	if c.waiters == 0 {
		g.free = append(g.free, c)
	}
	g.mu.Unlock()
	return err
}

// fetchJob is one flight a shard group needs: the key, the clip it belongs
// to, and — after fetchAll — the settled result.
type fetchJob struct {
	key  flightKey
	clip media.Clip
	err  error
}

// fetchAll settles every job through its flight: inline when there is one,
// concurrently otherwise, so a group's missing clips and segments transfer
// in parallel while each joins or leads its own flight.
func (p *Pool) fetchAll(jobs []fetchJob, now vtime.Time) {
	if len(jobs) == 1 {
		jobs[0].err = p.fly(jobs[0], now)
		return
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	wg.Add(len(jobs))
	for i, j := range jobs {
		go func(j fetchJob, err *error) {
			defer wg.Done()
			*err = p.fly(j, now)
		}(j, &errs[i])
	}
	wg.Wait()
	for i := range jobs {
		jobs[i].err = errs[i]
	}
}

// fly leads or joins the flight for one job; only a leader consults the
// link and counts a logical fetch.
func (p *Pool) fly(j fetchJob, now vtime.Time) error {
	return p.flight.do(j.key, func() error {
		p.fetches.Add(1)
		return p.link(j.clip, j.key.seg, now)
	})
}

// link consults the configured origin link for one flight key: the
// whole-clip hook for wholeClip, the per-segment hook otherwise.
func (p *Pool) link(clip media.Clip, seg int32, now vtime.Time) error {
	if seg == wholeClip {
		return p.fetch(clip, now)
	}
	return p.segFetch(clip, seg, now)
}

// stagedFetch is every shard engine's fetch hook. It answers a key the
// pipeline staged for the current group, and otherwise consults the link
// directly under the shard lock — a clip or segment that was resident at
// the probe but was evicted or expired before apply, which is rare enough
// not to matter.
func (p *Pool) stagedFetch(s *poolShard, clip media.Clip, seg int32, now vtime.Time) error {
	if err, ok := s.staged[flightKey{id: clip.ID, seg: seg}]; ok {
		return err
	}
	return p.link(clip, seg, now)
}
