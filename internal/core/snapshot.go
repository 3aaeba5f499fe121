package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"mediacache/internal/media"
	"mediacache/internal/vtime"
)

// Snapshot captures a cache's persistent state: the resident clip set, the
// virtual clock and the accumulated statistics. It models an FMC device
// powering down with a disk-backed cache (Section 1: "configured with an
// inexpensive magnetic disk drive") — the cached bytes survive, so on
// restart the device restores residency instead of refetching everything.
//
// Policy bookkeeping (reference histories, priorities) is deliberately not
// part of the snapshot: it is advisory state that policies rebuild as
// requests flow, and serializing every policy's internals would couple the
// format to implementation details. Restore notifies the policy of each
// resident clip through OnInsert, the same adoption path used by Warm.
type Snapshot struct {
	// ResidentIDs is the fully resident clip set in ascending id order.
	// (For whole-clip caches that is every resident clip.)
	ResidentIDs []media.ClipID
	// Clock is the virtual time at capture.
	Clock vtime.Time
	// Stats are the accumulated statistics at capture.
	Stats Stats
	// SegmentSize is the capturing cache's segment granularity, zero for
	// whole-clip caches. Snapshots decode with gob, so pre-segment archives
	// read back with a zero here and restore unchanged.
	SegmentSize media.Bytes
	// Partial lists partially resident clips with their resident segment
	// indices in ascending order — present only for segmented captures,
	// sorted by clip id so encoding is deterministic.
	Partial []ClipSegments
	// TTLRemaining carries each resident clip's remaining time-to-live at
	// capture (deadline − clock), ascending by clip id. It is nil when the
	// capturing cache has expiry disabled, so TTL-off and pre-churn archives
	// encode byte-identically (gob omits zero-value fields). Remaining spans
	// are clock-relative rather than absolute deadlines, which makes them
	// portable across restores whose clock bases differ — a sharded pool
	// snapshot sums shard clocks but restores every shard at the snapshot
	// clock, and the cluster rebalance path moves snapshots between nodes
	// with unrelated histories.
	TTLRemaining []ClipTTL
}

// ClipSegments is one partially resident clip in a segmented Snapshot.
type ClipSegments struct {
	ID       media.ClipID
	Segments []int32
}

// ClipTTL is one resident clip's remaining time-to-live in a Snapshot
// taken from a cache with expiry enabled.
type ClipTTL struct {
	ID media.ClipID
	// Remaining is deadline − capture clock; it can be zero or negative for
	// a clip that is overdue but not yet lazily expired, in which case the
	// restoring cache expires it on first touch.
	Remaining vtime.Duration
}

// Snapshot captures the cache's current persistent state.
func (c *Cache) Snapshot() Snapshot {
	s := Snapshot{
		Clock:       c.clock,
		Stats:       c.stats,
		SegmentSize: c.segSize,
	}
	if c.ttl > 0 {
		ttls := make([]ClipTTL, 0, c.nResident)
		c.resident.ascend(func(id media.ClipID) bool {
			ttls = append(ttls, ClipTTL{ID: id, Remaining: c.deadlines[id] - c.clock})
			return true
		})
		s.TTLRemaining = ttls
	}
	if c.segSize == 0 {
		ids := make([]media.ClipID, 0, c.nResident)
		c.resident.ascend(func(id media.ClipID) bool {
			ids = append(ids, id)
			return true
		})
		s.ResidentIDs = ids
		return s
	}
	ids := make([]media.ClipID, 0, c.nResident)
	c.resident.ascend(func(id media.ClipID) bool {
		sm := c.segs[id]
		if sm == nil || sm.resident == 0 {
			return true
		}
		if sm.resident == sm.nSegs {
			ids = append(ids, id)
			return true
		}
		segs := make([]int32, 0, sm.resident)
		for i := int32(0); i < sm.nSegs; i++ {
			if sm.has(i) {
				segs = append(segs, i)
			}
		}
		s.Partial = append(s.Partial, ClipSegments{ID: id, Segments: segs})
		return true
	})
	s.ResidentIDs = ids
	return s
}

// Restore replaces the cache's state with the snapshot's. The snapshot must
// be consistent with the repository and capacity: unknown ids, duplicates
// or a resident set exceeding capacity are rejected, leaving the cache
// untouched. The policy is reset and re-warmed via OnInsert.
func (c *Cache) Restore(s Snapshot) error {
	// Granularity compatibility: a segmented cache adopts whole-clip
	// snapshots (pre-segment archives) by marking every segment of each
	// clip resident, but segment lists only restore at the exact same
	// segment size, and a whole-clip cache cannot represent partial clips.
	switch {
	case s.SegmentSize == c.segSize:
	case s.SegmentSize == 0 && len(s.Partial) == 0 && c.segSize > 0:
	default:
		return fmt.Errorf("core: snapshot segment size %v does not match cache segment size %v",
			s.SegmentSize, c.segSize)
	}
	var total media.Bytes
	seen := make(map[media.ClipID]struct{}, len(s.ResidentIDs)+len(s.Partial))
	for _, id := range s.ResidentIDs {
		clip, ok := c.repo.Lookup(id)
		if !ok {
			return fmt.Errorf("core: snapshot references unknown clip %d", id)
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("core: snapshot lists clip %d twice", id)
		}
		seen[id] = struct{}{}
		total += clip.Size
	}
	for _, ps := range s.Partial {
		clip, ok := c.repo.Lookup(ps.ID)
		if !ok {
			return fmt.Errorf("core: snapshot references unknown clip %d", ps.ID)
		}
		if _, dup := seen[ps.ID]; dup {
			return fmt.Errorf("core: snapshot lists clip %d twice", ps.ID)
		}
		seen[ps.ID] = struct{}{}
		if len(ps.Segments) == 0 {
			return fmt.Errorf("core: snapshot lists clip %d as partial with no segments", ps.ID)
		}
		n := int32(c.SegmentsOf(clip))
		prev := int32(-1)
		for _, seg := range ps.Segments {
			if seg < 0 || seg >= n {
				return fmt.Errorf("core: snapshot segment %d of clip %d out of range [0,%d)", seg, ps.ID, n)
			}
			if seg <= prev {
				return fmt.Errorf("core: snapshot segments of clip %d not strictly ascending", ps.ID)
			}
			prev = seg
			total += c.segmentBytes(clip, seg)
		}
	}
	if total > c.capacity {
		return fmt.Errorf("core: snapshot holds %v, exceeding capacity %v", total, c.capacity)
	}
	if s.Clock < 0 {
		return fmt.Errorf("core: snapshot clock %d is negative", s.Clock)
	}
	var rem map[media.ClipID]vtime.Duration
	if len(s.TTLRemaining) > 0 {
		rem = make(map[media.ClipID]vtime.Duration, len(s.TTLRemaining))
		for _, ct := range s.TTLRemaining {
			if _, resident := seen[ct.ID]; !resident {
				return fmt.Errorf("core: snapshot carries a TTL for non-resident clip %d", ct.ID)
			}
			if _, dup := rem[ct.ID]; dup {
				return fmt.Errorf("core: snapshot lists clip %d's TTL twice", ct.ID)
			}
			rem[ct.ID] = ct.Remaining
		}
	}
	c.clearResidency(s.Clock)
	c.stats = s.Stats
	c.policy.Reset()
	for _, id := range s.ResidentIDs {
		clip := c.repo.Clip(id)
		c.restoreResident(id, rem)
		c.used += clip.Size
		c.policy.OnInsert(clip, c.clock)
		if c.segSize > 0 {
			c.adoptFullClip(clip)
		}
		c.emit(EventRestore, clip, c.clock)
	}
	for _, ps := range s.Partial {
		clip := c.repo.Clip(ps.ID)
		sm := newSegMeta(clip, c.SegmentsOf(clip))
		for _, seg := range ps.Segments {
			sm.set(seg)
			sm.resBytes += c.segmentBytes(clip, seg)
		}
		c.segs[ps.ID] = sm
		c.restoreResident(ps.ID, rem)
		c.used += sm.resBytes
		c.residentSegs += int(sm.resident)
		c.policy.OnInsert(clip, c.clock)
		c.notifyResidentBytes(clip, sm.resBytes, c.clock)
		c.emitB(EventRestore, clip, sm.resBytes, c.clock)
	}
	return nil
}

// restoreResident makes a restored clip resident. Its time-to-live is the
// carried remaining TTL when the snapshot has one — the cluster rebalance
// path depends on deadlines surviving the move — and a fresh TTL from the
// restore point otherwise (pre-churn archives, or captures from a TTL-off
// cache, whose remaining life is unknowable).
func (c *Cache) restoreResident(id media.ClipID, rem map[media.ClipID]vtime.Duration) {
	life := c.ttl
	if r, ok := rem[id]; ok {
		life = r
	}
	c.addResident(id, life)
}

// WriteSnapshot serializes the snapshot with encoding/gob.
func (s Snapshot) WriteSnapshot(w io.Writer) error {
	return gob.NewEncoder(w).Encode(s)
}

// ReadSnapshot decodes a snapshot written by WriteSnapshot.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	return s, nil
}
