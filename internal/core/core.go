// Package core implements the client-side cache engine of the paper's
// simulation model (Section 2): a fixed-size cache of continuous-media clips
// driven by a replacement Policy.
//
// The engine owns residency and byte accounting and enforces the paper's
// problem-statement rules:
//
//   - the cache has a fixed size S_T smaller than the repository S_DB;
//   - every referenced clip is materialized in the cache (Section 2's default
//     assumption), unless the policy's admission hook declines — the hook
//     models the paper's "variant of Simple that does not cache those
//     referenced clips whose byte hit ratio is smaller" (Section 3.3) and the
//     future-work scenario where unpopular clips are streamed without caching;
//   - when free space is insufficient, the policy selects victims until the
//     incoming clip fits;
//   - a clip larger than the whole cache is streamed without caching.
//
// Policies are notified of every reference (hit or miss) so on-line
// techniques can maintain reference histories for non-resident clips.
package core

import (
	"errors"
	"fmt"
	"iter"

	"mediacache/internal/media"
	"mediacache/internal/vtime"
)

// Outcome classifies the servicing of one request.
type Outcome uint8

// Request outcomes.
const (
	// Hit means the referenced clip was cache resident.
	Hit Outcome = iota
	// MissCached means the clip was streamed from the server and
	// materialized in the cache.
	MissCached
	// MissBypassed means the clip was streamed from the server without
	// being cached (admission declined).
	MissBypassed
	// MissTooLarge means the clip exceeds the cache capacity and was
	// streamed without caching.
	MissTooLarge
	// MissDegraded means the fetch hook (WithFetch) failed: the remote
	// repository could not deliver the clip, so nothing was materialized.
	MissDegraded
	// MissError means the engine could not service the miss because the
	// policy misbehaved during victim selection (ErrBadVictim or
	// ErrPolicyNoVictim). The clip was fetched but not materialized and the
	// resident set is untouched; the accompanying error describes the fault.
	MissError
)

// IsHit reports whether the outcome was a cache hit.
func (o Outcome) IsHit() bool { return o == Hit }

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case MissCached:
		return "miss-cached"
	case MissBypassed:
		return "miss-bypassed"
	case MissTooLarge:
		return "miss-too-large"
	case MissDegraded:
		return "miss-degraded"
	case MissError:
		return "miss-error"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// ResidentView is the read-only view of cache contents a Policy receives
// when selecting victims.
type ResidentView interface {
	// Resident reports whether clip id is cached.
	Resident(id media.ClipID) bool
	// Residents returns a range-over-func iterator over the cached clips
	// in ascending ID order. Iteration is an allocation-free walk of the
	// resident bitset; breaking out early stops the walk.
	Residents() iter.Seq[media.Clip]
	// ForEachResident visits the cached clips in ascending ID order until
	// fn returns false. Unlike ResidentClips it allocates nothing: the
	// engine keeps the resident set as a bitset indexed by clip ID, so
	// iteration is a word-by-word scan, not a per-call sort.
	ForEachResident(fn func(media.Clip) bool)
	// NumResident returns the number of cached clips.
	NumResident() int
	// ResidentBytes returns how many of clip id's bytes are cached. With
	// whole-clip residency this is the clip size (resident) or zero; with
	// segment-granular residency (WithSegments) it is the byte total of the
	// clip's resident segments, so policies can rank partial residents by
	// resident-byte cost.
	ResidentBytes(id media.ClipID) media.Bytes
	// FreeBytes returns the unused cache capacity.
	FreeBytes() media.Bytes
	// Capacity returns the total cache capacity S_T.
	Capacity() media.Bytes
}

// Policy is a cache replacement technique. Implementations live in
// internal/policy/...; the engine drives them through this interface.
//
// Call sequence per request: Record is always called first (hit or miss).
// On a miss that will be cached, Victims is called (possibly repeatedly)
// until enough space is free, then OnEvict for each victim and OnInsert for
// the incoming clip.
type Policy interface {
	// Name returns the technique's display name, e.g. "DYNSimple(K=2)".
	Name() string

	// Record observes a reference to clip at time now. hit reports whether
	// the clip was resident. Policies use this to maintain reference
	// histories (which, per Section 4.1, may cover non-resident clips).
	Record(clip media.Clip, now vtime.Time, hit bool)

	// Admit reports whether the incoming (missed) clip should be cached.
	// The default paper assumption is to always admit.
	Admit(clip media.Clip, now vtime.Time) bool

	// Victims selects resident clips to evict so that at least need bytes
	// become free. view exposes the resident set; incoming is the clip
	// being cached. The returned ids must be resident and distinct; the
	// engine validates and evicts them in order. If the returned set frees
	// fewer than need bytes the engine calls Victims again with the
	// remaining need.
	Victims(incoming media.Clip, view ResidentView, need media.Bytes, now vtime.Time) []media.ClipID

	// OnInsert notifies that clip became resident.
	OnInsert(clip media.Clip, now vtime.Time)

	// OnEvict notifies that clip id was evicted.
	OnEvict(id media.ClipID, now vtime.Time)

	// Reset returns the policy to its initial state.
	Reset()
}

// Stats accumulates the evaluation metrics of Section 1, plus the engine
// counters the sweep pool surfaces for performance tracking.
type Stats struct {
	Requests        uint64      // total references
	Hits            uint64      // references serviced from cache
	BytesReferenced media.Bytes // Σ size of referenced clips
	BytesHit        media.Bytes // Σ size of clips serviced from cache
	BytesFetched    media.Bytes // network traffic: Σ size of clips actually delivered on misses
	BytesFailed     media.Bytes // Σ size of clips whose remote fetch failed (nothing was delivered)
	Evictions       uint64      // number of clips swapped out
	BytesEvicted    media.Bytes // Σ size of evicted clips
	Bypassed        uint64      // misses not cached (admission declined, too large, or engine error)
	FetchFailed     uint64      // misses whose fetch hook failed (degraded service)
	VictimCalls     uint64      // Policy.Victims invocations, incl. re-invocations for short selections

	// Segment-granular counters, accumulated only by caches built with
	// WithSegments; always zero under whole-clip residency.
	PartialHits     uint64 // requests serviced partly from resident segments, partly fetched
	SegmentsFetched uint64 // segments materialized on misses
	SegmentsEvicted uint64 // segments evicted, incl. tail trims of partial victims

	// Catalog-dynamics counters (ISSUE 8). Invalidations are not requests:
	// they tick no clock and touch none of the counting or byte identities
	// above, so Requests == Hits+MissCached+Bypassed+FetchFailed and the
	// byte identity hold by construction under any purge/expiry schedule.
	Invalidated      uint64      // clips dropped by Invalidate or TTL expiry
	Expired          uint64      // the TTL-expiry subset of Invalidated
	BytesInvalidated media.Bytes // Σ resident bytes credited by invalidations
}

// HitRate returns the cache hit rate in [0, 1].
func (s Stats) HitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Requests)
}

// ByteHitRate returns the cache byte hit rate in [0, 1].
func (s Stats) ByteHitRate() float64 {
	if s.BytesReferenced == 0 {
		return 0
	}
	return float64(s.BytesHit) / float64(s.BytesReferenced)
}

// Add returns the field-wise sum of two counter sets — the aggregate view
// of several caches (e.g. the shards of a partitioned pool) as if one
// engine had serviced every request.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Requests:        s.Requests + o.Requests,
		Hits:            s.Hits + o.Hits,
		BytesReferenced: s.BytesReferenced + o.BytesReferenced,
		BytesHit:        s.BytesHit + o.BytesHit,
		BytesFetched:    s.BytesFetched + o.BytesFetched,
		BytesFailed:     s.BytesFailed + o.BytesFailed,
		Evictions:       s.Evictions + o.Evictions,
		BytesEvicted:    s.BytesEvicted + o.BytesEvicted,
		Bypassed:        s.Bypassed + o.Bypassed,
		FetchFailed:     s.FetchFailed + o.FetchFailed,
		VictimCalls:     s.VictimCalls + o.VictimCalls,
		PartialHits:     s.PartialHits + o.PartialHits,
		SegmentsFetched: s.SegmentsFetched + o.SegmentsFetched,
		SegmentsEvicted: s.SegmentsEvicted + o.SegmentsEvicted,

		Invalidated:      s.Invalidated + o.Invalidated,
		Expired:          s.Expired + o.Expired,
		BytesInvalidated: s.BytesInvalidated + o.BytesInvalidated,
	}
}

// Cache is a fixed-capacity clip cache managed by a Policy.
type Cache struct {
	repo     *media.Repository
	capacity media.Bytes
	policy   Policy

	// admit, when set via WithAdmission, is consulted on every cacheable
	// miss before the policy's own Admit.
	admit func(media.Clip, vtime.Time) bool
	// fetch, when set via WithFetch, models retrieving a missed clip from
	// the remote repository; an error degrades the miss (nothing cached).
	fetch FetchFunc
	// observer, when set via WithObserver, receives typed engine events
	// (hit, miss, eviction, bypass, restore). Nil-checked at every
	// emission so the disabled path stays allocation-free.
	observer Observer
	// mirror, when set via WithResidencyMirror, receives every residency
	// transition so lock-free readers can consult a published view of the
	// resident set. Nil-checked at every transition.
	mirror *ResidencyMirror
	// initClock is the virtual time the cache starts (and Resets) at.
	initClock vtime.Time

	// resident is the resident clip set, one bit per repository id, sized
	// once from repo.N(). Walking it word by word yields ascending ID order,
	// the order ForEachResident, Snapshot and the TTL sweep promise.
	resident  idSet
	nResident int
	// victimMarks is the reusable duplicate-detection set checkVictims
	// marks and then unmarks, so validating a batch costs O(len(victims)).
	victimMarks idSet
	used        media.Bytes
	clock       vtime.Time
	stats       Stats

	// Segment-granular residency (WithSegments). segSize == 0 means legacy
	// whole-clip residency; none of these fields are touched on that request
	// path, which stays allocation-free and byte-identical to earlier PRs.
	segSize      media.Bytes      // fixed segment size, 0 = whole-clip
	prefixSegs   int              // WithPrefixAdmission: first N segments always admitted, evicted last
	segFetch     SegmentFetchFunc // WithSegmentFetch: per-segment fetch seam
	segAware     SegmentAware     // policy's optional resident-byte notification hook
	segs         []*segMeta       // per-clip residency bitmaps indexed by clip id, nil when not resident
	residentSegs int              // total resident segments across all clips
	segScratch   []int32          // reusable missing-segment buffer for the request path

	// TTL expiry (WithTTL). ttl == 0 means no expiry: none of these fields
	// are touched on that request path, which stays byte-identical to
	// earlier PRs. Deadlines are absolute virtual times indexed by clip id,
	// meaningful only for resident clips; expiry is lazy (checked on the
	// requested clip) plus an amortized sweep every sweepEvery ticks.
	ttl           vtime.Duration
	deadlines     []vtime.Time
	lastSweep     vtime.Time
	sweepEvery    vtime.Time
	expireScratch []media.ClipID // reusable expired-id buffer for the sweep
}

// Option configures optional engine behaviour at construction; see
// WithAdmission and WithClock.
type Option func(*Cache) error

// WithAdmission installs an engine-level admission hook consulted on every
// cacheable miss before the policy's own Admit. Returning false streams
// the clip without materializing it (the Section 2 future-work scenario),
// regardless of what the policy would decide.
func WithAdmission(hook func(clip media.Clip, now vtime.Time) bool) Option {
	return func(c *Cache) error {
		if hook == nil {
			return errors.New("core: WithAdmission hook must not be nil")
		}
		c.admit = hook
		return nil
	}
}

// FetchFunc models retrieving a missed clip from the remote repository over
// the (possibly faulty) network. It runs after every admission decision has
// approved caching the clip and before any victim is evicted, so a failed
// fetch never disturbs the resident set. Returning an error degrades the
// request to MissDegraded: the clip is not materialized and the failure is
// counted in Stats.FetchFailed.
type FetchFunc func(clip media.Clip, now vtime.Time) error

// WithFetch installs a fetch hook consulted on every miss that would be
// cached — the seam where a fault injector (internal/fault) or a real
// network client models the paper's flaky wireless link. A cache built
// without this option behaves exactly as before: every fetch succeeds.
func WithFetch(fetch FetchFunc) Option {
	return func(c *Cache) error {
		if fetch == nil {
			return errors.New("core: WithFetch hook must not be nil")
		}
		c.fetch = fetch
		return nil
	}
}

// WithClock starts the virtual clock at now instead of zero, e.g. when a
// cache resumes from an external event log. Reset returns the clock to
// this value.
func WithClock(now vtime.Time) Option {
	return func(c *Cache) error {
		if now < 0 {
			return fmt.Errorf("core: initial clock must be non-negative, got %d", now)
		}
		c.initClock = now
		return nil
	}
}

// Binder is implemented by policies that need a read-only view of the
// cache they manage before the first request (e.g. the Simple admission
// variant, whose Admit consults the resident set). New binds such
// policies automatically, replacing ad-hoc post-construction wiring.
type Binder interface {
	Bind(view ResidentView)
}

// Engine errors.
var (
	ErrUnknownClip    = errors.New("core: request references a clip not in the repository")
	ErrPolicyNoVictim = errors.New("core: policy returned no usable victim while space is needed")
	ErrBadVictim      = errors.New("core: policy selected a non-resident or duplicate victim")
)

// New returns a Cache over repo with capacity S_T managed by policy.
// Capacity must be positive and smaller than the repository size (otherwise
// the caching problem is trivial — Section 2). Policies implementing
// Binder are bound to the cache's resident view before New returns.
func New(repo *media.Repository, capacity media.Bytes, policy Policy, opts ...Option) (*Cache, error) {
	if repo == nil {
		return nil, errors.New("core: repository must not be nil")
	}
	if policy == nil {
		return nil, errors.New("core: policy must not be nil")
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("core: capacity must be positive, got %d", capacity)
	}
	if capacity >= repo.TotalSize() {
		return nil, fmt.Errorf("core: capacity %v is not smaller than the repository %v; the problem is trivial (Section 2)",
			capacity, repo.TotalSize())
	}
	c := &Cache{
		repo:        repo,
		capacity:    capacity,
		policy:      policy,
		resident:    newIDSet(repo.N()),
		victimMarks: newIDSet(repo.N()),
	}
	for _, opt := range opts {
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	if c.prefixSegs > 0 && c.segSize == 0 {
		return nil, errors.New("core: WithPrefixAdmission requires WithSegments")
	}
	if c.segFetch != nil && c.segSize == 0 {
		return nil, errors.New("core: WithSegmentFetch requires WithSegments")
	}
	if c.segSize > 0 {
		c.segs = make([]*segMeta, repo.N()+1)
		c.segAware, _ = policy.(SegmentAware)
	}
	if c.ttl > 0 {
		c.deadlines = make([]vtime.Time, repo.N()+1)
		// Sweep cadence is a pure function of the TTL so the event stream is
		// deterministic: often enough that expired clips do not linger past
		// a quarter TTL, capped so huge TTLs still sweep regularly.
		c.sweepEvery = min(max(vtime.Time(c.ttl)/4, 1), 1024)
		c.lastSweep = c.initClock
	}
	c.clock = c.initClock
	c.mirrorClock(c.clock)
	if b, ok := policy.(Binder); ok {
		b.Bind(c)
	}
	return c, nil
}

// Repository returns the backing repository.
func (c *Cache) Repository() *media.Repository { return c.repo }

// Policy returns the replacement policy.
func (c *Cache) Policy() Policy { return c.policy }

// Now returns the current virtual time (the number of requests processed).
func (c *Cache) Now() vtime.Time { return c.clock }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Capacity returns S_T.
func (c *Cache) Capacity() media.Bytes { return c.capacity }

// UsedBytes returns the bytes currently occupied by resident clips.
func (c *Cache) UsedBytes() media.Bytes { return c.used }

// FreeBytes returns the unused capacity.
func (c *Cache) FreeBytes() media.Bytes { return c.capacity - c.used }

// NumResident returns the number of cached clips.
func (c *Cache) NumResident() int { return c.nResident }

// Resident reports whether clip id is cached. Under segment-granular
// residency a clip with any resident segment counts as resident; use
// FullyResident or ResidentBytes for finer answers.
func (c *Cache) Resident(id media.ClipID) bool { return c.resident.has(id) }

// ResidentBytes implements ResidentView: the number of clip id's bytes that
// are cached. Whole-clip residency answers clip-size-or-zero; segmented
// residency answers the byte total of the clip's resident segments.
func (c *Cache) ResidentBytes(id media.ClipID) media.Bytes {
	if c.segSize > 0 {
		if sm := c.segMetaOf(id); sm != nil {
			return sm.resBytes
		}
		return 0
	}
	if !c.resident.has(id) {
		return 0
	}
	return c.repo.Clip(id).Size
}

// CollectResidents copies view's resident set into a fresh slice in
// ascending ID order — for scan-mode victim selection that must sort or
// repeatedly index the whole set. Callers that only iterate should range
// over view.Residents(), which allocates nothing.
func CollectResidents(view ResidentView) []media.Clip {
	clips := make([]media.Clip, 0, view.NumResident())
	for clip := range view.Residents() {
		clips = append(clips, clip)
	}
	return clips
}

// CollectResidentIDs copies view's resident clip ids into a fresh slice in
// ascending order — the slice-returning counterpart of ranging over
// Residents, for callers (mostly tests) that need a materialized set.
func CollectResidentIDs(view ResidentView) []media.ClipID {
	ids := make([]media.ClipID, 0, view.NumResident())
	for clip := range view.Residents() {
		ids = append(ids, clip.ID)
	}
	return ids
}

// Residents returns a range-over-func iterator over the cached clips in
// ascending ID order. The sequence is an allocation-free walk of the
// resident bitset and may be ranged over multiple times; each range sees
// the resident set as of that iteration.
func (c *Cache) Residents() iter.Seq[media.Clip] {
	return c.ForEachResident
}

// ForEachResident visits the cached clips in ascending ID order until fn
// returns false, without allocating.
func (c *Cache) ForEachResident(fn func(media.Clip) bool) {
	c.resident.ascend(func(id media.ClipID) bool {
		return fn(c.repo.Clip(id))
	})
}

var _ ResidentView = (*Cache)(nil)

// Request services a reference to clip id, advancing the virtual clock by
// one tick, and returns the outcome. Request is the paper's unit of work: the
// client references a clip, the cache manager services it.
func (c *Cache) Request(id media.ClipID) (Outcome, error) {
	if c.segSize > 0 {
		res, err := c.RequestRange(id, 0, -1)
		return res.Outcome, err
	}
	clip, ok := c.repo.Lookup(id)
	if !ok {
		return MissBypassed, fmt.Errorf("%w: id %d", ErrUnknownClip, id)
	}
	c.clock++
	now := c.clock
	c.mirrorClock(now)
	if c.ttl > 0 {
		// Amortized sweep first, then the lazy check on the requested clip:
		// the sweep may already have expired it, and the order must be fixed
		// so the event stream is deterministic. An expired requested clip
		// falls through as an ordinary miss.
		c.maybeSweep(now)
		c.expireIfDue(id, now)
	}

	hit := c.resident.has(id)
	c.policy.Record(clip, now, hit)

	c.stats.Requests++
	c.stats.BytesReferenced += clip.Size
	if hit {
		c.stats.Hits++
		c.stats.BytesHit += clip.Size
		c.emit(EventHit, clip, now)
		return Hit, nil
	}

	// Fetched bytes are network traffic for clips actually delivered: a
	// bypassed or too-large miss still streams the clip to the client, but a
	// failed fetch delivers nothing and must not count (it accrues to
	// BytesFailed instead). The invariant is
	// BytesHit + BytesFetched + BytesFailed == BytesReferenced.
	if clip.Size > c.capacity {
		c.stats.BytesFetched += clip.Size
		c.stats.Bypassed++
		c.emit(EventBypass, clip, now)
		return MissTooLarge, nil
	}
	if c.admit != nil && !c.admit(clip, now) {
		c.stats.BytesFetched += clip.Size
		c.stats.Bypassed++
		c.emit(EventBypass, clip, now)
		return MissBypassed, nil
	}
	if !c.policy.Admit(clip, now) {
		c.stats.BytesFetched += clip.Size
		c.stats.Bypassed++
		c.emit(EventBypass, clip, now)
		return MissBypassed, nil
	}
	if c.fetch != nil {
		if err := c.fetch(clip, now); err != nil {
			c.stats.FetchFailed++
			c.stats.BytesFailed += clip.Size
			c.emit(EventFetchFail, clip, now)
			return MissDegraded, nil
		}
	}
	c.stats.BytesFetched += clip.Size
	if err := c.makeRoom(clip, now); err != nil {
		// makeRoom validates each victim batch before touching residency,
		// so the resident set is exactly as it was before this request
		// (minus any earlier, fully valid batches). The clip was fetched but
		// cannot be materialized; account it as a bypassed miss so
		// Requests == Hits + MissCached + Bypassed + FetchFailed holds even
		// when a policy misbehaves.
		c.stats.Bypassed++
		c.emit(EventBypass, clip, now)
		return MissError, err
	}
	c.addResident(id, c.ttl)
	c.used += clip.Size
	c.policy.OnInsert(clip, now)
	c.emit(EventMiss, clip, now)
	return MissCached, nil
}

// ApplyHit services a reference to clip id that a concurrent reader already
// classified as a hit against the cache's published residency view
// (WithResidencyMirror): clock tick, policy Record, hit statistics and the
// EventHit emission — the exact hit branch of Request. It exists so a
// lock-reduced front-end can serve the bytes without the engine lock and
// later drain a batch of such touches under one lock acquisition.
//
// The request is accounted as a hit unconditionally, because the bytes were
// served from the view at the reader's linearization point even if the clip
// has been evicted since. The policy, however, is told the truth about the
// engine's current state: Record(hit) reflects residency at drain time, so
// reference histories never diverge from the resident set. Driven serially
// (drain before any intervening mutation) this is byte-identical to Request
// on a hit. Only whole-clip caches support it; segmented caches account
// partial residency per byte range and must use RequestRange.
func (c *Cache) ApplyHit(id media.ClipID) error {
	if c.segSize > 0 {
		return errors.New("core: ApplyHit requires whole-clip residency")
	}
	clip, ok := c.repo.Lookup(id)
	if !ok {
		return fmt.Errorf("%w: id %d", ErrUnknownClip, id)
	}
	c.clock++
	now := c.clock
	c.mirrorClock(now)
	// Sweep only; no lazy check of id itself. The lock-free fast path that
	// feeds ApplyHit verified the deadline against its tick estimate before
	// classifying the hit, and ApplyHit's contract counts the hit
	// unconditionally anyway — residency truth is told to the policy below.
	if c.ttl > 0 {
		c.maybeSweep(now)
	}

	c.policy.Record(clip, now, c.resident.has(id))

	c.stats.Requests++
	c.stats.BytesReferenced += clip.Size
	c.stats.Hits++
	c.stats.BytesHit += clip.Size
	c.emit(EventHit, clip, now)
	return nil
}

// makeRoom evicts policy-selected victims until clip fits. Each victim
// batch is validated in full — every id resident, no duplicates — before
// any eviction is applied, so a misbehaving policy can never leave a
// partially evicted cache behind.
func (c *Cache) makeRoom(clip media.Clip, now vtime.Time) error {
	for c.capacity-c.used < clip.Size {
		need := clip.Size - (c.capacity - c.used)
		c.stats.VictimCalls++
		victims := c.policy.Victims(clip, c, need, now)
		if len(victims) == 0 {
			return fmt.Errorf("%w: need %v, free %v", ErrPolicyNoVictim, need, c.FreeBytes())
		}
		if err := c.checkVictims(victims); err != nil {
			return err
		}
		for _, vid := range victims {
			victim := c.repo.Clip(vid)
			c.dropResident(vid)
			c.used -= victim.Size
			c.stats.Evictions++
			c.stats.BytesEvicted += victim.Size
			c.policy.OnEvict(vid, now)
			c.emit(EventEviction, victim, now)
		}
	}
	return nil
}

// checkVictims validates one victim batch before any of it is evicted:
// every id must be resident and listed once. Out-of-range and non-resident
// ids report the id; a repeat reports a duplicate. Ids are checked in batch
// order, so the first offending id decides the error. The duplicate marks
// are set and then cleared again, so a check costs O(len(victims)) however
// large the repository.
func (c *Cache) checkVictims(victims []media.ClipID) error {
	var err error
	marked := 0
	for _, vid := range victims {
		if !c.resident.has(vid) {
			err = fmt.Errorf("%w: id %d", ErrBadVictim, vid)
			break
		}
		if c.victimMarks.has(vid) {
			err = fmt.Errorf("%w: duplicate id %d", ErrBadVictim, vid)
			break
		}
		c.victimMarks.add(vid)
		marked++
	}
	for _, vid := range victims[:marked] {
		c.victimMarks.del(vid)
	}
	return err
}

// addResident makes clip id resident with the given time-to-live from the
// current clock: the bit, the TTL deadline and the mirror publication, in
// that order, so a lock-free reader sees residency and expiry together.
// Byte accounting and policy notification stay with the caller.
func (c *Cache) addResident(id media.ClipID, life vtime.Duration) {
	c.resident.add(id)
	c.nResident++
	if c.ttl > 0 {
		c.deadlines[id] = c.clock + life
	}
	c.mirrorAdd(id)
}

// dropResident removes clip id from the resident set and the mirror. Its
// deadline slot is left stale: every reader checks residency first. Byte
// accounting, segment bookkeeping and policy notification stay with the
// caller.
func (c *Cache) dropResident(id media.ClipID) {
	c.resident.del(id)
	c.nResident--
	c.mirrorRemove(id)
}

// Warm pre-loads the given clips into the cache without counting requests,
// evicting nothing: clips that do not fit are skipped. Used to place an
// off-line technique's chosen working set, and by tests.
func (c *Cache) Warm(ids []media.ClipID) {
	for _, id := range ids {
		clip, ok := c.repo.Lookup(id)
		if !ok || c.Resident(id) || clip.Size > c.FreeBytes() {
			continue
		}
		c.addResident(id, c.ttl)
		c.used += clip.Size
		c.policy.OnInsert(clip, c.clock)
		if c.segSize > 0 {
			c.adoptFullClip(clip)
		}
	}
}

// Reset clears residency, statistics and the policy state, and rewinds the
// clock to its initial value (zero unless WithClock set one).
func (c *Cache) Reset() {
	c.clearResidency(c.initClock)
	c.stats = Stats{}
	c.policy.Reset()
}

// clearResidency empties the resident set, the segment table and the
// mirror in place and sets the clock to now — the shared first half of
// Reset and Restore. Deadline slots go stale, as on eviction. The tables
// keep their size, so the attached mirror's readers never see a slice
// swapped.
func (c *Cache) clearResidency(now vtime.Time) {
	clear(c.resident)
	c.nResident = 0
	c.mirrorClear()
	c.used = 0
	c.clock = now
	c.mirrorClock(now)
	if c.segSize > 0 {
		clear(c.segs)
		c.residentSegs = 0
	}
	if c.ttl > 0 {
		c.lastSweep = now
	}
}

// TheoreticalHitRate returns Σ f_id over resident clips for the supplied
// per-identity probability vector (indexed by id-1). This is the metric of
// Section 4.4.1: the probability the next request hits, given the true
// request distribution.
func (c *Cache) TheoreticalHitRate(pmf []float64) float64 {
	// Sum in ascending clip-ID order: float addition is not associative, so
	// the order is fixed, and the resident bitset yields it without
	// allocating.
	// Under segment-granular residency only fully resident clips count: the
	// next (whole-clip) request hits only when every segment is cached.
	var sum float64
	c.resident.ascend(func(id media.ClipID) bool {
		if c.segSize > 0 && !c.FullyResident(id) {
			return true
		}
		if i := int(id) - 1; i >= 0 && i < len(pmf) {
			sum += pmf[i]
		}
		return true
	})
	return sum
}
