package core_test

// residency_test.go checks the engine's per-clip tables — the resident
// bitset, the id-indexed deadlines and segment metadata, and the attached
// ResidencyMirror — against a map model built only from the policy
// notifications the engine sends, and drives the mirror's lock-free readers
// concurrently with engine mutation (run under -race by `make race`).

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/randutil"
	"mediacache/internal/vtime"
)

// modelPolicy evicts pseudo-random residents and keeps a map model of the
// resident set from the engine's notifications alone: OnInsert adds a clip
// (with its whole size and a deadline one TTL ahead), OnResidentBytes
// updates a segmented clip's bytes, OnEvict removes it and Reset clears
// everything.
type modelPolicy struct {
	src      *randutil.Source
	ttl      vtime.Duration
	resident map[media.ClipID]media.Bytes
	deadline map[media.ClipID]vtime.Time
	out      []media.ClipID
}

func newModelPolicy(seed uint64, ttl vtime.Duration) *modelPolicy {
	p := &modelPolicy{src: randutil.NewSource(seed), ttl: ttl}
	p.Reset()
	return p
}

func (p *modelPolicy) Name() string                        { return "model" }
func (p *modelPolicy) Record(media.Clip, vtime.Time, bool) {}
func (p *modelPolicy) Admit(c media.Clip, _ vtime.Time) bool {
	return c.ID%7 != 0 // some bypasses, and prefix-only admissions when segmented
}

func (p *modelPolicy) Victims(_ media.Clip, view core.ResidentView, need media.Bytes, _ vtime.Time) []media.ClipID {
	p.out = p.out[:0]
	var freed media.Bytes
	for freed < need {
		before := len(p.out)
		for c := range view.Residents() {
			if freed >= need {
				break
			}
			if p.src.Intn(3) == 0 && !slices.Contains(p.out, c.ID) {
				p.out = append(p.out, c.ID)
				freed += view.ResidentBytes(c.ID)
			}
		}
		if len(p.out) == before {
			break
		}
	}
	return p.out
}

func (p *modelPolicy) OnInsert(c media.Clip, now vtime.Time) {
	p.resident[c.ID] = c.Size
	if p.ttl > 0 {
		p.deadline[c.ID] = now + p.ttl
	}
}

func (p *modelPolicy) OnResidentBytes(c media.Clip, resident media.Bytes, _ vtime.Time) {
	p.resident[c.ID] = resident
}

func (p *modelPolicy) OnEvict(id media.ClipID, _ vtime.Time) {
	delete(p.resident, id)
	delete(p.deadline, id)
}

func (p *modelPolicy) Reset() {
	p.resident = make(map[media.ClipID]media.Bytes)
	p.deadline = make(map[media.ClipID]vtime.Time)
}

// checkModel compares every residency query — and the mirror — with the
// model, over every repository id plus ids just outside it.
func checkModel(t *testing.T, step int, c *core.Cache, p *modelPolicy, m *core.ResidencyMirror) {
	t.Helper()
	n := c.Repository().N()
	want := slices.Sorted(maps.Keys(p.resident))
	got := core.CollectResidentIDs(c)
	if !slices.Equal(got, want) {
		t.Fatalf("step %d: Residents = %v, model %v", step, got, want)
	}
	if !slices.IsSorted(got) {
		t.Fatalf("step %d: Residents not ascending: %v", step, got)
	}
	if c.NumResident() != len(want) || m.Len() != len(want) {
		t.Fatalf("step %d: NumResident %d, mirror Len %d, model %d", step, c.NumResident(), m.Len(), len(want))
	}
	var used media.Bytes
	for id := media.ClipID(-1); id <= media.ClipID(n+2); id++ {
		bytes, ok := p.resident[id]
		used += bytes
		if c.Resident(id) != ok || m.Resident(id) != ok {
			t.Fatalf("step %d: clip %d Resident %v, mirror %v, model %v", step, id, c.Resident(id), m.Resident(id), ok)
		}
		if got := c.ResidentBytes(id); got != bytes {
			t.Fatalf("step %d: clip %d ResidentBytes %v, model %v", step, id, got, bytes)
		}
		dl, mok := m.Deadline(id)
		if mok != ok || dl != c.DeadlineOf(id) || dl != p.deadline[id] {
			t.Fatalf("step %d: clip %d mirror deadline %d/%v, engine %d, model %d",
				step, id, dl, mok, c.DeadlineOf(id), p.deadline[id])
		}
	}
	if used != c.UsedBytes() {
		t.Fatalf("step %d: model holds %v, engine used %v", step, used, c.UsedBytes())
	}
	var iterated int
	c.ForEachResident(func(media.Clip) bool { iterated++; return iterated < 2 })
	if iterated != min(2, len(want)) {
		t.Fatalf("step %d: ForEachResident ignored an early stop (%d visits)", step, iterated)
	}
}

// TestResidencyMatchesMapModel runs random operation sequences — requests
// (ranged on segmented caches), Invalidate, Warm, Snapshot→Restore, TTL
// sweeps and Reset — on whole-clip, segmented and TTL caches and compares
// the engine's id-indexed tables with the model after every operation.
func TestResidencyMatchesMapModel(t *testing.T) {
	configs := []struct {
		name string
		opts []core.Option
	}{
		{"whole", nil},
		{"segmented", []core.Option{core.WithSegments(200 << 10), core.WithPrefixAdmission(1)}},
		{"ttl", []core.Option{core.WithTTL(60)}},
		{"segmented-ttl", []core.Option{core.WithSegments(300 << 10), core.WithTTL(45)}},
	}
	for _, cfg := range configs {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", cfg.name, seed), func(t *testing.T) {
				src := randutil.NewSource(seed)
				repo := randomRepo(t, src, 70+src.Intn(70))
				var m core.ResidencyMirror
				c, err := core.New(repo, repo.TotalSize()/10, newModelPolicy(seed, 0),
					append([]core.Option{core.WithResidencyMirror(&m)}, cfg.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				p := c.Policy().(*modelPolicy)
				p.ttl = c.TTL()
				n := repo.N()
				var evictions uint64 // across Resets, which zero the stats
				for step := range 600 {
					id := media.ClipID(src.Intn(n+3) - 1) // -1 through N+1
					switch op := src.Intn(100); {
					case op < 80:
						if c.Segmented() {
							if clip, ok := repo.Lookup(id); ok {
								start := media.Bytes(src.Intn(int(clip.Size)))
								_, _ = c.RequestRange(id, start, media.Bytes(src.Intn(int(clip.Size))))
								break
							}
						}
						_, _ = c.Request(id)
					case op < 87:
						c.Invalidate(id)
					case op < 92:
						c.Warm([]media.ClipID{id, media.ClipID(src.Intn(n) + 1)})
					case op < 96:
						snap := c.Snapshot()
						before := core.CollectResidentIDs(c)
						if err := c.Restore(snap); err != nil {
							t.Fatalf("step %d: restore: %v", step, err)
						}
						// Restore re-inserts at the snapshot clock but resumes
						// each clip's remaining TTL.
						for _, ct := range snap.TTLRemaining {
							p.deadline[ct.ID] = snap.Clock + ct.Remaining
						}
						if after := core.CollectResidentIDs(c); !slices.Equal(before, after) {
							t.Fatalf("step %d: restore changed residents %v -> %v", step, before, after)
						}
					case op < 98:
						c.SweepExpired()
					default:
						evictions += c.Stats().Evictions
						c.Reset()
					}
					checkModel(t, step, c, p, &m)
				}
				if evictions+c.Stats().Evictions == 0 {
					t.Fatal("no evictions; check vacuous")
				}
			})
		}
	}
}

// TestMirrorConcurrentReaders reads the mirror from other goroutines while
// the engine inserts, evicts, expires, invalidates, restores and resets.
// Every answer must be one the mirror could legally give: ids outside the
// repository are never resident, a resident clip carries a positive TTL
// deadline, and Len stays within bounds.
// Under -race it also proves the reads are properly synchronized.
func TestMirrorConcurrentReaders(t *testing.T) {
	src := randutil.NewSource(3)
	repo := randomRepo(t, src, 200)
	const ttl = 50
	var m core.ResidencyMirror
	c, err := core.New(repo, repo.TotalSize()/8, newModelPolicy(3, ttl), core.WithResidencyMirror(&m), core.WithTTL(ttl))
	if err != nil {
		t.Fatal(err)
	}
	n := repo.N()
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for r := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := randutil.NewSource(uint64(100 + r))
			for !stop.Load() {
				id := media.ClipID(rs.Intn(n+4) - 2)
				res := m.Resident(id)
				dl, ok := m.Deadline(id)
				switch {
				case (id < 1 || int(id) > n) && (res || ok):
					errs <- fmt.Errorf("clip %d outside the repository reads resident", id)
					return
				case ok && dl <= 0:
					errs <- fmt.Errorf("clip %d resident with deadline %d under TTL", id, dl)
					return
				case m.Len() < 0 || m.Len() > n:
					errs <- fmt.Errorf("mirror Len %d outside [0, %d]", m.Len(), n)
					return
				}
			}
		}()
	}
	for i := range 20000 {
		switch {
		case i%5000 == 4999:
			c.Reset()
		case i%1500 == 1499:
			if err := c.Restore(c.Snapshot()); err != nil {
				t.Error(err)
			}
		case i%7 == 0:
			c.Invalidate(media.ClipID(src.Intn(n) + 1))
		default:
			_, _ = c.Request(media.ClipID(src.Intn(n) + 1))
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if m.Len() != c.NumResident() {
		t.Fatalf("mirror Len %d, engine %d", m.Len(), c.NumResident())
	}
}
