package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"mediacache/internal/media"
)

func TestIDSet(t *testing.T) {
	s := newIDSet(130)
	ids := []media.ClipID{130, 0, 64, 63, 1, 127, 128}
	for _, id := range ids {
		s.add(id)
	}
	var got []media.ClipID
	s.ascend(func(id media.ClipID) bool {
		got = append(got, id)
		return true
	})
	want := slices.Sorted(slices.Values(ids))
	if !slices.Equal(got, want) {
		t.Fatalf("ascend = %v, want %v", got, want)
	}
	for _, id := range []media.ClipID{-1, -64, 2, 65, 131, 191, 192, 1 << 40} {
		if s.has(id) {
			t.Errorf("has(%d) = true for a non-member", id)
		}
	}
	s.del(64)
	if s.has(64) || !s.has(63) || !s.has(127) {
		t.Fatal("del touched the wrong bit")
	}
	// ascend stops when fn returns false, and fn may delete the id it holds.
	var first []media.ClipID
	s.ascend(func(id media.ClipID) bool {
		s.del(id)
		first = append(first, id)
		return len(first) < 3
	})
	if !slices.Equal(first, []media.ClipID{0, 1, 63}) || s.has(1) || !s.has(127) {
		t.Fatalf("early stop visited %v", first)
	}
}

// TestCheckVictimsRejects drives bad victim batches through both eviction
// loops (whole-clip makeRoom and segmented makeRoomSegment). Each batch must
// fail with ErrBadVictim before anything is evicted, leave the resident
// set, byte accounting and mirror exactly as they were, and leave no
// duplicate mark behind for the next batch.
func TestCheckVictimsRejects(t *testing.T) {
	cases := []struct {
		name    string
		victims []media.ClipID
		msg     string
	}{
		{"zero", []media.ClipID{0}, "id 0"},
		{"past N", []media.ClipID{5}, "id 5"},
		{"negative", []media.ClipID{-1}, "id -1"},
		{"far out", []media.ClipID{1 << 40}, "id 1099511627776"},
		{"duplicate", []media.ClipID{1, 1}, "duplicate id 1"},
		{"duplicate later", []media.ClipID{2, 1, 2}, "duplicate id 2"},
		{"non-resident", []media.ClipID{3}, "id 3"},
		{"valid then non-resident", []media.ClipID{1, 2, 3}, "id 3"},
		{"non-resident before duplicate", []media.ClipID{1, 3, 1}, "id 3"},
	}
	for _, segmented := range []bool{false, true} {
		for _, tc := range cases {
			name := tc.name
			if segmented {
				name = "segmented/" + name
			}
			t.Run(name, func(t *testing.T) {
				p := &badPolicy{victims: func() []media.ClipID { return tc.victims }}
				var m ResidencyMirror
				opts := []Option{WithResidencyMirror(&m)}
				if segmented {
					opts = append(opts, WithSegments(10))
				}
				c, err := New(smallRepo(t), 50, p, opts...)
				if err != nil {
					t.Fatal(err)
				}
				mustRequest(t, c, 1)
				mustRequest(t, c, 2)
				// Clip 4 (40 bytes) meets 20 free bytes. A segmented cache
				// first fills the free space with two of its segments, so
				// it ends partly resident; either way clips 1 and 2 must
				// stay whole.
				usedWant, residentWant := media.Bytes(30), 2
				if segmented {
					usedWant, residentWant = 50, 3
				}
				out, err := c.Request(4)
				if !errors.Is(err, ErrBadVictim) || out != MissError {
					t.Fatalf("got %v, %v; want MissError, ErrBadVictim", out, err)
				}
				if !strings.HasSuffix(err.Error(), ": "+tc.msg) {
					t.Errorf("error %q does not name %q", err, tc.msg)
				}
				if c.ResidentBytes(1) != 10 || c.ResidentBytes(2) != 20 || c.UsedBytes() != usedWant {
					t.Fatalf("residency changed: clip 1 %v, clip 2 %v, used %v",
						c.ResidentBytes(1), c.ResidentBytes(2), c.UsedBytes())
				}
				if c.NumResident() != residentWant || m.Len() != residentWant || !m.Resident(1) || !m.Resident(2) {
					t.Fatalf("NumResident %d, mirror %d clips, want %d", c.NumResident(), m.Len(), residentWant)
				}
				if st := c.Stats(); st.Evictions != 0 || st.SegmentsEvicted != 0 {
					t.Fatalf("evictions leaked: %+v", st)
				}
				for w, word := range c.victimMarks {
					if word != 0 {
						t.Fatalf("duplicate marks left in word %d: %#x", w, word)
					}
				}
				// The same cache still accepts a valid batch.
				p.victims = func() []media.ClipID {
					for clip := range c.Residents() {
						if clip.ID != 4 {
							return []media.ClipID{clip.ID}
						}
					}
					return nil
				}
				if out, err := c.Request(4); err != nil || out != MissCached {
					t.Fatalf("valid batch after rejection: %v, %v", out, err)
				}
			})
		}
	}
}
