package core

import (
	"errors"
	"sync/atomic"

	"mediacache/internal/media"
	"mediacache/internal/vtime"
)

// ResidencyMirror is a concurrently readable mirror of a cache's resident
// clip set. The engine itself is single-threaded and its resident set must
// never be read while another goroutine mutates it; a mirror gives callers
// that hold no lock (the sharded pool's read-mostly hit path) a published
// view they can consult without serializing on the engine.
//
// The engine publishes every residency transition — insert, eviction,
// invalidation, warm, reset, restore, segment adoption and trim-to-empty —
// while it holds whatever lock its owner wraps it in, so a reader observes
// each clip's residency at some point in the recent past: the view is
// always a state the cache actually passed through, never a torn or
// invented one. Readers must still treat an answer as a hint — the clip can
// be evicted between the lookup and whatever the reader does with it — and
// re-validate under the engine lock when exactness matters.
//
// Under TTL expiry (WithTTL) each entry carries the clip's expiry deadline,
// published together with residency, and the engine additionally publishes
// its virtual clock after every tick, so a lock-free reader can bound "is
// this clip still live at my tick?" without touching the engine (see the
// sharded pool's fast path).
//
// The state is one atomic word per repository clip id, indexed by id and
// sized once when an engine attaches the mirror (WithResidencyMirror). The
// slice is never reallocated afterwards — Reset and Restore clear it in
// place — so a reader never races a slice swap. A word holds 0 for "not
// resident" and the encoded expiry deadline (see encodeDeadline) otherwise.
//
// The zero value is ready to attach; before then, and for ids outside the
// repository, every clip reads as not resident. All methods are safe for
// concurrent use.
type ResidencyMirror struct {
	slots []atomic.Int64 // by clip id: 0 = absent, else encodeDeadline(deadline)
	n     atomic.Int64
	clock atomic.Int64 // engine virtual clock at the last published tick
}

// encodeDeadline maps a resident clip's deadline to a non-zero slot word:
// non-negative deadlines (0 = never expires) shift up by one, and the
// negative deadlines a restore can give an overdue clip are kept as they
// are. decodeDeadline inverts it.
func encodeDeadline(dl vtime.Time) int64 {
	if dl >= 0 {
		return int64(dl) + 1
	}
	return int64(dl)
}

func decodeDeadline(v int64) vtime.Time {
	if v > 0 {
		return vtime.Time(v - 1)
	}
	return vtime.Time(v)
}

// load returns clip id's slot word, 0 for ids outside the mirror.
func (m *ResidencyMirror) load(id media.ClipID) int64 {
	if uint(id) >= uint(len(m.slots)) {
		return 0
	}
	return m.slots[id].Load()
}

// Resident reports whether clip id was resident at the last published
// transition affecting it.
func (m *ResidencyMirror) Resident(id media.ClipID) bool { return m.load(id) != 0 }

// Deadline returns clip id's published expiry deadline and whether the clip
// was resident at the last published transition. A zero deadline on a
// resident clip means it never expires (TTL disabled).
func (m *ResidencyMirror) Deadline(id media.ClipID) (vtime.Time, bool) {
	v := m.load(id)
	if v == 0 {
		return 0, false
	}
	return decodeDeadline(v), true
}

// Clock returns the engine virtual time at the last published tick. It lags
// the true clock by at most the owner's undrained touches; see the sharded
// pool for how readers bound that lag.
func (m *ResidencyMirror) Clock() vtime.Time {
	return vtime.Time(m.clock.Load())
}

// setClock publishes the engine's virtual clock.
func (m *ResidencyMirror) setClock(now vtime.Time) {
	m.clock.Store(int64(now))
}

// Len returns the number of clips in the published view.
func (m *ResidencyMirror) Len() int { return int(m.n.Load()) }

// add publishes clip id as resident with the given expiry deadline
// (zero = never expires).
func (m *ResidencyMirror) add(id media.ClipID, deadline vtime.Time) {
	if m.slots[id].Swap(encodeDeadline(deadline)) == 0 {
		m.n.Add(1)
	}
}

// remove publishes clip id as no longer resident.
func (m *ResidencyMirror) remove(id media.ClipID) {
	if m.slots[id].Swap(0) != 0 {
		m.n.Add(-1)
	}
}

// clear empties the published view in place.
func (m *ResidencyMirror) clear() {
	for i := range m.slots {
		m.slots[i].Store(0)
	}
	m.n.Store(0)
}

// WithResidencyMirror attaches a mirror the engine keeps in sync with its
// resident set, sizing it to the repository. The mirror may be read
// concurrently with engine operation; see ResidencyMirror for the exact
// guarantees. A mirror serves one engine: attaching it twice is an error,
// since resizing it could race its readers.
func WithResidencyMirror(m *ResidencyMirror) Option {
	return func(c *Cache) error {
		if m == nil {
			return errors.New("core: WithResidencyMirror mirror must not be nil")
		}
		if m.slots != nil {
			return errors.New("core: WithResidencyMirror mirror is already attached to an engine")
		}
		m.slots = make([]atomic.Int64, c.repo.N()+1)
		c.mirror = m
		return nil
	}
}

// mirrorAdd publishes an insert to the attached mirror, if any, carrying
// the clip's expiry deadline. Insert sites set the deadline before calling
// this, so residency and expiry are published atomically.
func (c *Cache) mirrorAdd(id media.ClipID) {
	if c.mirror != nil {
		var dl vtime.Time
		if c.ttl > 0 {
			dl = c.deadlines[id]
		}
		c.mirror.add(id, dl)
	}
}

// mirrorRemove publishes an eviction to the attached mirror, if any.
func (c *Cache) mirrorRemove(id media.ClipID) {
	if c.mirror != nil {
		c.mirror.remove(id)
	}
}

// mirrorClear publishes a full reset to the attached mirror, if any.
func (c *Cache) mirrorClear() {
	if c.mirror != nil {
		c.mirror.clear()
	}
}

// mirrorClock publishes the engine clock to the attached mirror, if any.
// Called after every clock change so lock-free readers can bound staleness.
func (c *Cache) mirrorClock(now vtime.Time) {
	if c.mirror != nil {
		c.mirror.setClock(now)
	}
}
