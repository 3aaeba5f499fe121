// Segment-granular residency: the engine generalization that promotes the
// fixed-size block experiment from internal/policy/blocklru into a first-
// class core concept. A cache built with WithSegments divides every clip
// into fixed-size segments (the last one short), tracks residency per
// segment in a bitmap, and services byte ranges: resident segments are
// served from cache, missing ones are fetched individually, and victims can
// lose tail segments without dropping their prefix — the behaviour prefix
// caches use to hide startup latency for streaming media.
//
// Everything here is reached only when segSize > 0; the legacy whole-clip
// request path is untouched and remains byte-identical to earlier PRs.
package core

import (
	"errors"
	"fmt"

	"mediacache/internal/media"
	"mediacache/internal/vtime"
)

// ErrBadRange reports a requested byte range lying outside the clip.
var ErrBadRange = errors.New("core: requested range is outside the clip")

// WithSegments switches the cache to segment-granular residency with the
// given fixed segment size. Clips are divided into ceil(size/segSize)
// segments; the last segment of a clip may be short. With segmentation on,
// Request(id) behaves like RequestRange(id, 0, clip.Size): a clip is a hit
// only when every segment is resident, and misses fetch and materialize
// only the missing segments.
func WithSegments(segSize media.Bytes) Option {
	return func(c *Cache) error {
		if segSize <= 0 {
			return fmt.Errorf("core: segment size must be positive, got %d", segSize)
		}
		c.segSize = segSize
		return nil
	}
}

// WithPrefixAdmission pins the first n segments of every clip: they are
// admitted even when admission hooks decline the clip, and victim trimming
// evicts them only after every unpinned segment of the victim is gone.
// Requires WithSegments.
func WithPrefixAdmission(n int) Option {
	return func(c *Cache) error {
		if n <= 0 {
			return fmt.Errorf("core: prefix admission segment count must be positive, got %d", n)
		}
		c.prefixSegs = n
		return nil
	}
}

// SegmentFetchFunc models retrieving one missing segment of a clip from the
// remote repository. seg is the zero-based segment index. Returning an
// error fails just that segment: the rest of the request is still serviced
// and the failure accrues to Stats.BytesFailed for exactly the segment's
// bytes.
type SegmentFetchFunc func(clip media.Clip, seg int32, now vtime.Time) error

// WithSegmentFetch installs a per-segment fetch hook — the segmented
// counterpart of WithFetch, and the seam per-segment coalescing and fault
// injection plug into. Requires WithSegments. A segmented cache built with
// WithFetch instead fetches once per request; one with neither hook always
// succeeds.
func WithSegmentFetch(fetch SegmentFetchFunc) Option {
	return func(c *Cache) error {
		if fetch == nil {
			return errors.New("core: WithSegmentFetch hook must not be nil")
		}
		c.segFetch = fetch
		return nil
	}
}

// SegmentAware is implemented by policies that rank partial residents by
// resident-byte cost (the GD family). The engine calls OnResidentBytes
// whenever a resident clip's cached byte total changes — segment inserts,
// tail trims, partial restores — so the policy can re-rank the clip.
// Whole-clip caches never call it, preserving decision identity with
// earlier PRs.
type SegmentAware interface {
	OnResidentBytes(clip media.Clip, resident media.Bytes, now vtime.Time)
}

// segMeta is one resident clip's segment bookkeeping.
type segMeta struct {
	clip     media.Clip
	nSegs    int32
	resident int32       // number of set bits
	resBytes media.Bytes // byte total of resident segments
	bits     []uint64
}

func newSegMeta(clip media.Clip, n int) *segMeta {
	return &segMeta{clip: clip, nSegs: int32(n), bits: make([]uint64, (n+63)/64)}
}

func (m *segMeta) has(i int32) bool { return m.bits[i>>6]&(1<<uint(i&63)) != 0 }

func (m *segMeta) set(i int32) {
	if !m.has(i) {
		m.bits[i>>6] |= 1 << uint(i&63)
		m.resident++
	}
}

func (m *segMeta) clear(i int32) {
	if m.has(i) {
		m.bits[i>>6] &^= 1 << uint(i&63)
		m.resident--
	}
}

// Segmented reports whether the cache tracks residency per segment.
func (c *Cache) Segmented() bool { return c.segSize > 0 }

// SegmentSize returns the fixed segment size, zero for whole-clip caches.
func (c *Cache) SegmentSize() media.Bytes { return c.segSize }

// PrefixSegments returns the WithPrefixAdmission pin count (zero if unset).
func (c *Cache) PrefixSegments() int { return c.prefixSegs }

// ResidentSegments returns the total number of resident segments across all
// clips; zero for whole-clip caches.
func (c *Cache) ResidentSegments() int { return c.residentSegs }

// SegmentsOf returns the number of segments clip divides into (always 1 for
// whole-clip caches).
func (c *Cache) SegmentsOf(clip media.Clip) int {
	if c.segSize == 0 {
		return 1
	}
	n := int((clip.Size + c.segSize - 1) / c.segSize)
	if n == 0 {
		n = 1
	}
	return n
}

// segmentBytes returns the exact byte length of clip's segment i — segSize
// except for a clip's short last segment.
func (c *Cache) segmentBytes(clip media.Clip, i int32) media.Bytes {
	if rest := clip.Size - media.Bytes(i)*c.segSize; rest < c.segSize {
		return rest
	}
	return c.segSize
}

// segRangeBytes returns the byte total of clip's segments s0..s1 inclusive.
func (c *Cache) segRangeBytes(clip media.Clip, s0, s1 int32) media.Bytes {
	end := media.Bytes(s1+1) * c.segSize
	if end > clip.Size {
		end = clip.Size
	}
	return end - media.Bytes(s0)*c.segSize
}

// FullyResident reports whether every byte of clip id is cached. For
// whole-clip caches this is Resident.
func (c *Cache) FullyResident(id media.ClipID) bool {
	if c.segSize == 0 {
		return c.Resident(id)
	}
	sm := c.segMetaOf(id)
	return sm != nil && sm.resident == sm.nSegs
}

// SegmentResident reports whether segment seg of clip id is cached. For
// whole-clip caches any seg of a resident clip answers true.
func (c *Cache) SegmentResident(id media.ClipID, seg int32) bool {
	if c.segSize == 0 {
		return c.Resident(id)
	}
	sm := c.segMetaOf(id)
	return sm != nil && seg >= 0 && seg < sm.nSegs && sm.has(seg)
}

// ResidentSegmentsOf returns how many of clip id's segments are cached.
func (c *Cache) ResidentSegmentsOf(id media.ClipID) int {
	if c.segSize == 0 {
		if c.Resident(id) {
			return 1
		}
		return 0
	}
	if sm := c.segMetaOf(id); sm != nil {
		return int(sm.resident)
	}
	return 0
}

// segMetaOf returns clip id's segment bookkeeping, nil when nothing of it
// is resident or id lies outside the repository.
func (c *Cache) segMetaOf(id media.ClipID) *segMeta {
	if !c.resident.has(id) {
		return nil
	}
	return c.segs[id]
}

// AppendMissingSegments appends to dst the indices of clip id's segments in
// [s0, s1] that are not resident, in ascending order, and returns the
// extended slice. The shard pool uses it to probe a range under its lock
// without allocating.
func (c *Cache) AppendMissingSegments(dst []int32, id media.ClipID, s0, s1 int32) []int32 {
	sm := c.segMetaOf(id)
	for i := s0; i <= s1; i++ {
		if sm == nil || !sm.has(i) {
			dst = append(dst, i)
		}
	}
	return dst
}

// Extent is a contiguous resident byte range of one clip.
type Extent struct {
	Start  media.Bytes
	Length media.Bytes
}

// ResidentExtentsOf returns clip id's resident bytes as maximal contiguous
// extents in ascending offset order (nil when nothing is resident). A fully
// resident clip yields one extent covering the whole clip; so does any
// resident clip of a whole-clip cache.
func (c *Cache) ResidentExtentsOf(id media.ClipID) []Extent {
	if !c.resident.has(id) {
		return nil
	}
	if c.segSize == 0 {
		return []Extent{{Start: 0, Length: c.repo.Clip(id).Size}}
	}
	sm := c.segs[id]
	if sm == nil || sm.resident == 0 {
		return nil
	}
	var exts []Extent
	var runStart int32 = -1
	for i := int32(0); i < sm.nSegs; i++ {
		switch {
		case sm.has(i) && runStart < 0:
			runStart = i
		case !sm.has(i) && runStart >= 0:
			exts = append(exts, c.extentOf(sm.clip, runStart, i-1))
			runStart = -1
		}
	}
	if runStart >= 0 {
		exts = append(exts, c.extentOf(sm.clip, runStart, sm.nSegs-1))
	}
	return exts
}

func (c *Cache) extentOf(clip media.Clip, s0, s1 int32) Extent {
	start := media.Bytes(s0) * c.segSize
	return Extent{Start: start, Length: c.segRangeBytes(clip, s0, s1)}
}

// RangeResult is the per-request delivery accounting RequestRange returns:
// how the served range split across cache, network and failure. The fields
// satisfy BytesHit + BytesFetched + BytesFailed == bytes of the touched
// segments (the range rounded out to segment boundaries).
type RangeResult struct {
	// Outcome classifies the request exactly as Request would.
	Outcome Outcome
	// Start and Length are the clamped byte range actually served.
	Start  media.Bytes
	Length media.Bytes
	// BytesHit is the portion served from resident segments.
	BytesHit media.Bytes
	// BytesFetched is the portion delivered over the network (fetched and
	// materialized, or streamed without caching).
	BytesFetched media.Bytes
	// BytesFailed is the portion whose segment fetches failed.
	BytesFailed media.Bytes
	// FirstByteHit reports that the range's first byte was served from
	// cache: its segment (on a whole-clip cache, the clip) was resident
	// when the request was serviced, so delivery starts without waiting
	// on the link even when later segments miss.
	FirstByteHit bool
}

// RequestRange services a reference to bytes [start, start+length) of clip
// id, advancing the virtual clock by one tick. A negative or overlong
// length is clamped to the clip's end, so RequestRange(id, 0, -1) references
// the whole clip. A start outside the clip fails with ErrBadRange before
// any accounting (the HTTP layer's 416 case).
//
// With segment-granular residency the touched segments are serviced
// individually: resident ones count as hit bytes, missing cacheable ones
// are fetched (per-segment via WithSegmentFetch, else once per request via
// WithFetch) and materialized, and non-admitted ones are streamed without
// caching — except the WithPrefixAdmission prefix, which is always
// cacheable. A whole-clip cache delegates to Request and reports the range
// against its single outcome.
func (c *Cache) RequestRange(id media.ClipID, start, length media.Bytes) (RangeResult, error) {
	clip, ok := c.repo.Lookup(id)
	if !ok {
		return RangeResult{Outcome: MissBypassed}, fmt.Errorf("%w: id %d", ErrUnknownClip, id)
	}
	if start < 0 || start >= clip.Size {
		return RangeResult{Outcome: MissBypassed},
			fmt.Errorf("%w: start %d of clip %d (size %v)", ErrBadRange, start, id, clip.Size)
	}
	if length < 0 || start+length > clip.Size {
		length = clip.Size - start
	}
	if c.segSize == 0 {
		out, err := c.Request(id)
		res := RangeResult{Outcome: out, Start: start, Length: length}
		switch out {
		case Hit:
			res.BytesHit = length
			res.FirstByteHit = true
		case MissDegraded:
			res.BytesFailed = length
		default:
			// Cached, bypassed, too-large and engine-error misses all
			// streamed the clip to the client.
			res.BytesFetched = length
		}
		return res, err
	}
	return c.requestRangeSegmented(clip, start, length)
}

// requestRangeSegmented is the segmented request path. Stats accounting is
// at segment granularity: BytesReferenced grows by the touched segments'
// bytes and every touched segment lands in exactly one of BytesHit,
// BytesFetched or BytesFailed, so the PR 4 identities hold per segment.
func (c *Cache) requestRangeSegmented(clip media.Clip, start, length media.Bytes) (RangeResult, error) {
	c.clock++
	now := c.clock
	c.mirrorClock(now)
	if c.ttl > 0 {
		// Same order as Request: amortized sweep first, then the lazy check
		// on the requested clip, which drops all its resident segments.
		c.maybeSweep(now)
		c.expireIfDue(clip.ID, now)
	}

	s0 := int32(start / c.segSize)
	s1 := int32((start + length - 1) / c.segSize)
	touched := c.segRangeBytes(clip, s0, s1)

	c.segScratch = c.AppendMissingSegments(c.segScratch[:0], clip.ID, s0, s1)
	missing := c.segScratch
	rangeHit := len(missing) == 0

	c.policy.Record(clip, now, rangeHit)
	c.stats.Requests++
	c.stats.BytesReferenced += touched

	res := RangeResult{Start: start, Length: length}
	if rangeHit {
		c.stats.Hits++
		c.stats.BytesHit += touched
		c.emitB(EventHit, clip, touched, now)
		res.Outcome = Hit
		res.BytesHit = touched
		res.FirstByteHit = true
		return res, nil
	}
	res.FirstByteHit = missing[0] != s0

	var missingBytes media.Bytes
	for _, i := range missing {
		missingBytes += c.segmentBytes(clip, i)
	}
	resInRange := touched - missingBytes
	c.stats.BytesHit += resInRange
	res.BytesHit = resInRange
	if resInRange > 0 {
		c.stats.PartialHits++
		c.emitB(EventPartialHit, clip, resInRange, now)
	}

	// A clip larger than the whole cache is never cached (Section 2): its
	// missing segments are streamed without consulting the fetch hook, the
	// legacy bypass semantic applied per segment.
	if clip.Size > c.capacity {
		c.stats.BytesFetched += missingBytes
		c.stats.Bypassed++
		c.emitB(EventBypass, clip, missingBytes, now)
		res.Outcome = MissTooLarge
		res.BytesFetched = missingBytes
		return res, nil
	}

	admitted := true
	if c.admit != nil && !c.admit(clip, now) {
		admitted = false
	} else if !c.policy.Admit(clip, now) {
		admitted = false
	}

	var (
		streamed  media.Bytes // delivered but intentionally not cached
		failed    media.Bytes // fetch hook failed; nothing delivered
		delivered media.Bytes // streamed + fetched-ok bytes
		matErr    error       // first victim-selection failure, if any

		// WithFetch fallback: fetch once per request, failing every
		// cacheable missing segment together.
		wholeFetched  bool
		wholeFetchErr error
	)
	for _, i := range missing {
		b := c.segmentBytes(clip, i)
		cacheable := admitted || int(i) < c.prefixSegs
		if !cacheable || matErr != nil {
			// Streamed without caching; like the legacy bypass path this
			// does not consult the fetch hook.
			streamed += b
			delivered += b
			continue
		}
		var err error
		switch {
		case c.segFetch != nil:
			err = c.segFetch(clip, i, now)
		case c.fetch != nil:
			if !wholeFetched {
				wholeFetched = true
				wholeFetchErr = c.fetch(clip, now)
			}
			err = wholeFetchErr
		}
		if err != nil {
			failed += b
			continue
		}
		delivered += b
		if err := c.insertSegment(clip, i, now); err != nil {
			// The segment was delivered but cannot be materialized; the
			// remaining missing segments are streamed uncached.
			matErr = err
			continue
		}
		c.stats.SegmentsFetched++
	}
	c.stats.BytesFetched += delivered
	c.stats.BytesFailed += failed
	res.BytesFetched = delivered
	res.BytesFailed = failed

	switch {
	case matErr != nil:
		c.stats.Bypassed++
		c.emitB(EventBypass, clip, delivered, now)
		res.Outcome = MissError
		return res, matErr
	case failed > 0:
		c.stats.FetchFailed++
		c.emitB(EventFetchFail, clip, failed, now)
		res.Outcome = MissDegraded
	case streamed > 0:
		c.stats.Bypassed++
		c.emitB(EventBypass, clip, streamed, now)
		res.Outcome = MissBypassed
	default:
		c.emitB(EventMiss, clip, delivered, now)
		res.Outcome = MissCached
	}
	return res, nil
}

// insertSegment materializes one missing segment, evicting via
// makeRoomSegment first. The first segment of a clip makes the clip
// resident (policy OnInsert); every insert notifies SegmentAware policies
// of the new resident byte total.
func (c *Cache) insertSegment(clip media.Clip, seg int32, now vtime.Time) error {
	if sm := c.segs[clip.ID]; sm != nil && sm.has(seg) {
		return nil
	}
	b := c.segmentBytes(clip, seg)
	if err := c.makeRoomSegment(clip, b, now); err != nil {
		return err
	}
	// Re-read after makeRoomSegment: trimming may have evicted this clip's
	// own meta (a partially resident clip is a legal victim).
	sm := c.segs[clip.ID]
	if sm == nil {
		sm = newSegMeta(clip, c.SegmentsOf(clip))
		c.segs[clip.ID] = sm
	}
	sm.set(seg)
	sm.resBytes += b
	c.used += b
	c.residentSegs++
	if sm.resident == 1 {
		c.addResident(clip.ID, c.ttl)
		c.policy.OnInsert(clip, now)
	}
	c.notifyResidentBytes(clip, sm.resBytes, now)
	return nil
}

// makeRoomSegment frees at least need bytes by trimming policy-selected
// victims tail-first. Victim batches are validated in full before any trim,
// exactly like makeRoom; unlike makeRoom, a victim that satisfies the
// remaining need mid-batch stops the batch — partial trims make overshoot
// pointless.
func (c *Cache) makeRoomSegment(incoming media.Clip, need media.Bytes, now vtime.Time) error {
	for c.capacity-c.used < need {
		shortfall := need - (c.capacity - c.used)
		c.stats.VictimCalls++
		victims := c.policy.Victims(incoming, c, shortfall, now)
		if len(victims) == 0 {
			return fmt.Errorf("%w: need %v, free %v", ErrPolicyNoVictim, shortfall, c.FreeBytes())
		}
		if err := c.checkVictims(victims); err != nil {
			return err
		}
		for _, vid := range victims {
			if c.capacity-c.used >= need {
				break
			}
			c.trimVictim(vid, need, now)
		}
	}
	return nil
}

// trimVictim evicts segments of victim vid, tail-first, until need bytes
// are free or the victim is empty. Unpinned segments (index >= the
// WithPrefixAdmission count) go first, highest index down; the pinned
// prefix is consumed only after every unpinned segment is gone. Dropping
// the last segment evicts the clip outright (policy OnEvict, EventEviction);
// a partial trim keeps the clip resident and emits EventTrim.
func (c *Cache) trimVictim(vid media.ClipID, need media.Bytes, now vtime.Time) {
	sm := c.segs[vid]
	if sm == nil || sm.resident == 0 {
		return
	}
	clip := sm.clip
	var trimmed media.Bytes
	var ntrim uint64
	drop := func(hi, lo int32) {
		for i := hi; i >= lo; i-- {
			if c.capacity-c.used >= need {
				return
			}
			if !sm.has(i) {
				continue
			}
			b := c.segmentBytes(clip, i)
			sm.clear(i)
			sm.resBytes -= b
			c.used -= b
			c.residentSegs--
			trimmed += b
			ntrim++
		}
	}
	pinned := int32(c.prefixSegs)
	if pinned > sm.nSegs {
		pinned = sm.nSegs
	}
	drop(sm.nSegs-1, pinned)
	if c.capacity-c.used < need {
		drop(pinned-1, 0)
	}
	if ntrim == 0 {
		return
	}
	c.stats.SegmentsEvicted += ntrim
	c.stats.BytesEvicted += trimmed
	if sm.resident == 0 {
		c.segs[vid] = nil
		c.dropResident(vid)
		c.stats.Evictions++
		c.policy.OnEvict(vid, now)
		c.emitB(EventEviction, clip, trimmed, now)
		return
	}
	c.emitB(EventTrim, clip, trimmed, now)
	c.notifyResidentBytes(clip, sm.resBytes, now)
}

// adoptFullClip records full segment residency for a clip the whole-clip
// bookkeeping already inserted (Warm, Restore of fully resident clips).
func (c *Cache) adoptFullClip(clip media.Clip) {
	n := c.SegmentsOf(clip)
	sm := newSegMeta(clip, n)
	for i := int32(0); i < int32(n); i++ {
		sm.set(i)
	}
	sm.resBytes = clip.Size
	c.segs[clip.ID] = sm
	c.residentSegs += n
	c.notifyResidentBytes(clip, clip.Size, c.clock)
}

// notifyResidentBytes forwards a resident-byte change to a SegmentAware
// policy, if the policy is one.
func (c *Cache) notifyResidentBytes(clip media.Clip, resident media.Bytes, now vtime.Time) {
	if c.segAware != nil {
		c.segAware.OnResidentBytes(clip, resident, now)
	}
}
