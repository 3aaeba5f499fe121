package core

import (
	"bytes"
	"testing"

	"mediacache/internal/media"
	"mediacache/internal/vtime"
)

// TestMirrorTracksResidency drives every residency transition — insert,
// eviction, warm, reset, snapshot restore — and checks the mirror stays in
// lockstep with the engine's resident set.
func TestMirrorTracksResidency(t *testing.T) {
	repo := smallRepo(t)
	var m ResidencyMirror
	c, err := New(repo, 60, &fifoPolicy{}, WithResidencyMirror(&m))
	if err != nil {
		t.Fatal(err)
	}
	same := func(when string) {
		t.Helper()
		if m.Len() != c.NumResident() {
			t.Fatalf("%s: mirror holds %d clips, cache %d", when, m.Len(), c.NumResident())
		}
		for clip := range c.Residents() {
			if !m.Resident(clip.ID) {
				t.Fatalf("%s: clip %d resident but absent from mirror", when, clip.ID)
			}
		}
	}

	for _, id := range []media.ClipID{1, 2, 3, 1, 4, 2} {
		if _, err := c.Request(id); err != nil {
			t.Fatal(err)
		}
		same("after request")
	}
	snap := c.Snapshot()

	c.Reset()
	same("after reset")
	if m.Len() != 0 {
		t.Fatalf("mirror not empty after reset: %d clips", m.Len())
	}

	c.Warm([]media.ClipID{2, 3})
	same("after warm")

	if err := c.Restore(snap); err != nil {
		t.Fatal(err)
	}
	same("after restore")
}

// TestApplyHitMatchesRequestHit drives two identical caches through the
// same trace; one services hits through Request, the other through
// ApplyHit. Outcome-visible state — stats, clock, residency, snapshot
// bytes — must be byte-identical, since ApplyHit is the drained form of
// the Request hit branch.
func TestApplyHitMatchesRequestHit(t *testing.T) {
	repo := smallRepo(t)
	trace := []media.ClipID{1, 2, 1, 3, 2, 1, 4, 4, 1, 2, 1, 3}
	a, err := New(repo, 60, &fifoPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(repo, 60, &fifoPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range trace {
		if _, err := a.Request(id); err != nil {
			t.Fatal(err)
		}
		if b.Resident(id) {
			if err := b.ApplyHit(id); err != nil {
				t.Fatal(err)
			}
		} else if _, err := b.Request(id); err != nil {
			t.Fatal(err)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverge:\nRequest:  %+v\nApplyHit: %+v", a.Stats(), b.Stats())
	}
	if a.Now() != b.Now() {
		t.Fatalf("clocks diverge: %d vs %d", a.Now(), b.Now())
	}
	var sa, sb bytes.Buffer
	if err := a.Snapshot().WriteSnapshot(&sa); err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot().WriteSnapshot(&sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		t.Fatal("snapshots diverge")
	}
}

// TestApplyHitEvictedClip pins the documented stale-view semantics: the
// request is accounted as a hit (the bytes were served from the published
// view), but the policy is told the clip is no longer resident.
func TestApplyHitEvictedClip(t *testing.T) {
	repo := smallRepo(t)
	p := &fifoPolicy{}
	c, err := New(repo, 60, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request(1); err != nil {
		t.Fatal(err)
	}
	clip := repo.Clip(1)
	// Simulate the fast-path window: the clip is evicted between the
	// mirror lookup and the drain.
	c.Reset()
	if err := c.ApplyHit(1); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Requests != 1 || st.Hits != 1 || st.BytesHit != clip.Size {
		t.Fatalf("stale ApplyHit not counted as hit: %+v", st)
	}
	if st.BytesHit+st.BytesFetched+st.BytesFailed != st.BytesReferenced {
		t.Fatalf("byte identity violated: %+v", st)
	}
	if p.recorded != 1 {
		t.Fatalf("policy saw %d Record calls, want 1", p.recorded)
	}
	if len(p.order) != 0 {
		t.Fatalf("policy treated stale touch as an insert: %v", p.order)
	}
}

// TestApplyHitRejectsSegmented pins that segmented caches refuse ApplyHit:
// partial residency is accounted per byte range, not per whole clip.
func TestApplyHitRejectsSegmented(t *testing.T) {
	repo := smallRepo(t)
	c, err := New(repo, 60, &fifoPolicy{}, WithSegments(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyHit(1); err == nil {
		t.Fatal("ApplyHit on a segmented cache should fail")
	}
}

// TestApplyHitUnknownClip pins the unknown-id error path.
func TestApplyHitUnknownClip(t *testing.T) {
	c, _ := New(smallRepo(t), 60, &fifoPolicy{})
	if err := c.ApplyHit(9999); err == nil {
		t.Fatal("ApplyHit on an unknown clip should fail")
	}
}

// TestMirrorAttachesOnce pins that a mirror serves one engine: it is sized
// when attached, and a second attachment, which would have to resize it
// under its readers, is rejected.
func TestMirrorAttachesOnce(t *testing.T) {
	repo := smallRepo(t)
	var m ResidencyMirror
	if m.Resident(1) || m.Len() != 0 {
		t.Fatal("unattached mirror reads a resident clip")
	}
	if _, err := New(repo, 60, &fifoPolicy{}, WithResidencyMirror(&m)); err != nil {
		t.Fatal(err)
	}
	if _, err := New(repo, 60, &fifoPolicy{}, WithResidencyMirror(&m)); err == nil {
		t.Fatal("second attachment of one mirror should fail")
	}
}

// TestMirrorDeadlineEncoding pins the slot encoding: every deadline a
// resident clip can carry — zero (never expires), positive, and the
// negative one a restore at an earlier clock gives an overdue clip — maps
// to a non-zero word and back.
func TestMirrorDeadlineEncoding(t *testing.T) {
	for _, dl := range []vtime.Time{0, 1, 2, 1 << 40, -1, -2, -(1 << 40)} {
		v := encodeDeadline(dl)
		if v == 0 || decodeDeadline(v) != dl {
			t.Errorf("deadline %d encodes to %d, decodes to %d", dl, v, decodeDeadline(v))
		}
	}
}
