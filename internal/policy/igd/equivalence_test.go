package igd

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"mediacache/internal/core"
	"mediacache/internal/history"
	"mediacache/internal/media"
	"mediacache/internal/randutil"
	"mediacache/internal/vtime"
	"mediacache/internal/workload"
	"mediacache/internal/zipf"
)

// reference is IGD kept in per-clip maps, selecting victims by scoring the
// resident view in ascending id order. It is the differential oracle for
// the production heap search: the two must agree on every decision,
// including which of several exact ties the seeded draw picks.
type reference struct {
	k, n        int
	seed        uint64
	freezeAging bool

	tracker   *history.Tracker
	src       *randutil.Source
	inflation float64
	baseL     map[media.ClipID]float64
	nref      map[media.ClipID]uint64
	eff       map[media.ClipID]media.Bytes
	frozen    map[media.ClipID]float64
}

func newReference(n, k int, seed uint64, freezeAging bool) *reference {
	r := &reference{k: k, n: n, seed: seed, freezeAging: freezeAging}
	r.Reset()
	return r
}

func (r *reference) Name() string { return "IGD-reference" }

func (r *reference) Reset() {
	r.tracker = history.NewTracker(r.n, r.k)
	r.src = randutil.NewSource(r.seed)
	r.inflation = 0
	r.baseL = make(map[media.ClipID]float64)
	r.nref = make(map[media.ClipID]uint64)
	r.eff = make(map[media.ClipID]media.Bytes)
	r.frozen = make(map[media.ClipID]float64)
}

func (r *reference) score(c media.Clip, now vtime.Time) float64 {
	base := r.baseL[c.ID]
	if r.freezeAging {
		if h, ok := r.frozen[c.ID]; ok {
			return h
		}
	}
	delta := r.tracker.BackwardKDistance(c.ID, now)
	if math.IsInf(delta, 1) {
		return base
	}
	if delta <= 0 {
		delta = 1
	}
	size := float64(c.Size)
	if b, ok := r.eff[c.ID]; ok {
		size = float64(b)
	}
	return base + float64(r.nref[c.ID])/(delta*size)
}

func (r *reference) refreeze(c media.Clip, now vtime.Time) {
	if r.freezeAging {
		delete(r.frozen, c.ID)
		r.frozen[c.ID] = r.score(c, now)
	}
}

func (r *reference) Record(c media.Clip, now vtime.Time, hit bool) {
	r.tracker.Observe(c.ID, now)
	if hit {
		r.nref[c.ID]++
		r.baseL[c.ID] = r.inflation
		r.refreeze(c, now)
	}
}

func (r *reference) Admit(media.Clip, vtime.Time) bool { return true }

func (r *reference) Victims(_ media.Clip, view core.ResidentView, _ media.Bytes, now vtime.Time) []media.ClipID {
	return r.referenceVictims(view, now)
}

// referenceVictims is the view-ordered scan: score every resident in
// ascending id order, collect the exact minima in that order, draw one.
func (r *reference) referenceVictims(view core.ResidentView, now vtime.Time) []media.ClipID {
	var (
		minH  float64
		ties  []media.ClipID
		found bool
	)
	for c := range view.Residents() {
		if _, ok := r.baseL[c.ID]; !ok {
			r.OnInsert(c, now)
		}
		h := r.score(c, now)
		switch {
		case !found || h < minH:
			minH, ties, found = h, ties[:0], true
			ties = append(ties, c.ID)
		case h == minH:
			ties = append(ties, c.ID)
		}
	}
	if !found {
		return nil
	}
	if minH > r.inflation {
		r.inflation = minH
	}
	victim := ties[0]
	if len(ties) > 1 {
		victim = ties[r.src.Intn(len(ties))]
	}
	return []media.ClipID{victim}
}

func (r *reference) OnInsert(c media.Clip, now vtime.Time) {
	r.nref[c.ID] = 1
	r.baseL[c.ID] = r.inflation
	if r.freezeAging {
		r.frozen[c.ID] = r.score(c, now)
	}
}

func (r *reference) OnEvict(id media.ClipID, _ vtime.Time) {
	delete(r.baseL, id)
	delete(r.nref, id)
	delete(r.eff, id)
	delete(r.frozen, id)
}

func (r *reference) OnResidentBytes(c media.Clip, resident media.Bytes, now vtime.Time) {
	if resident > 0 && resident < c.Size {
		r.eff[c.ID] = resident
	} else {
		delete(r.eff, c.ID)
	}
	if _, ok := r.frozen[c.ID]; ok {
		r.refreeze(c, now)
	}
}

// eventLog records a cache's full event stream.
type eventLog struct{ events []core.Event }

func (l *eventLog) Observe(ev core.Event) { l.events = append(l.events, ev) }

// twin drives one cache on the production policy and one on the reference
// through identical operations.
type twin struct {
	t      *testing.T
	prod   *Policy
	ref    *reference
	a, b   *core.Cache
	la, lb *eventLog
}

func newTwin(t *testing.T, repo *media.Repository, capacity media.Bytes, seed uint64, frozen bool, opts ...core.Option) *twin {
	t.Helper()
	w := &twin{t: t, la: &eventLog{}, lb: &eventLog{}}
	var popts []Option
	if frozen {
		popts = append(popts, FrozenAging())
	}
	w.prod = MustNew(repo.N(), 2, seed, popts...)
	w.ref = newReference(repo.N(), 2, seed, frozen)
	var err error
	if w.a, err = core.New(repo, capacity, w.prod, append(opts, core.WithObserver(w.la))...); err != nil {
		t.Fatal(err)
	}
	if w.b, err = core.New(repo, capacity, w.ref, append(opts, core.WithObserver(w.lb))...); err != nil {
		t.Fatal(err)
	}
	return w
}

func (w *twin) request(step int, id media.ClipID) {
	w.t.Helper()
	a, errA := w.a.Request(id)
	b, errB := w.b.Request(id)
	if errA != nil || errB != nil || a != b {
		w.t.Fatalf("step %d (clip %d): production %v/%v, reference %v/%v", step, id, a, errA, b, errB)
	}
}

func (w *twin) requestRange(step int, req workload.RangeRequest) {
	w.t.Helper()
	a, errA := w.a.RequestRange(req.Clip, req.Start, req.Length)
	b, errB := w.b.RequestRange(req.Clip, req.Start, req.Length)
	if errA != nil || errB != nil || a != b {
		w.t.Fatalf("step %d (%+v): production %+v/%v, reference %+v/%v", step, req, a, errA, b, errB)
	}
}

// check requires identical event streams, resident sets, inflation and
// ledgers so far.
func (w *twin) check(what string) {
	w.t.Helper()
	ea, eb := w.la.events, w.lb.events
	for i := range min(len(ea), len(eb)) {
		if ea[i] != eb[i] {
			w.t.Fatalf("%s: event %d diverged: production %+v, reference %+v", what, i, ea[i], eb[i])
		}
	}
	if len(ea) != len(eb) {
		w.t.Fatalf("%s: production emitted %d events, reference %d", what, len(ea), len(eb))
	}
	if ra, rb := core.CollectResidentIDs(w.a), core.CollectResidentIDs(w.b); !reflect.DeepEqual(ra, rb) {
		w.t.Fatalf("%s: resident sets diverged:\n production %v\n reference  %v", what, ra, rb)
	}
	if w.prod.Inflation() != w.ref.inflation {
		w.t.Fatalf("%s: inflation production %v, reference %v", what, w.prod.Inflation(), w.ref.inflation)
	}
	if w.a.Stats() != w.b.Stats() {
		w.t.Fatalf("%s: stats diverged:\n production %+v\n reference  %+v", what, w.a.Stats(), w.b.Stats())
	}
	sameScores(w.t, what, w.prod, w.ref, w.a, w.a.Now()+1)
}

// sameScores requires the production and reference scores and reference
// counts of every resident of view to be identical at now.
func sameScores(t *testing.T, what string, prod *Policy, ref *reference, view core.ResidentView, now vtime.Time) {
	t.Helper()
	for c := range view.Residents() {
		if a, b := prod.Score(c, now), ref.score(c, now); a != b || prod.NRef(c.ID) != ref.nref[c.ID] {
			t.Fatalf("%s: clip %d: production score %v nref %d, reference score %v nref %d",
				what, c.ID, a, prod.NRef(c.ID), b, ref.nref[c.ID])
		}
	}
}

// evictions counts the eviction events so far, to keep the checks from
// passing vacuously.
func (w *twin) evictions() int {
	n := 0
	for _, ev := range w.la.events {
		if ev.Type == core.EventEviction {
			n++
		}
	}
	return n
}

// TestIndexedEquivalence: the production heap search reproduces the reference
// view-ordered scan exactly — outcomes, victim order, seeded tie-breaks,
// inflation — on both paper repository shapes and on the 20,004-clip
// eviction-heavy shape.
func TestIndexedEquivalence(t *testing.T) {
	cases := []struct {
		name     string
		repo     func() (*media.Repository, error)
		seeds    int
		requests int
	}{
		{"paper", func() (*media.Repository, error) { return media.PaperRepository(), nil }, 3, 4000},
		// Equi-sized: maximal tie pressure.
		{"equi", func() (*media.Repository, error) { return media.PaperEquiRepository(), nil }, 3, 4000},
		{"evict-heavy", func() (*media.Repository, error) { return media.VariableRepository(20004) }, 1, 20000},
	}
	for _, tc := range cases {
		repo, err := tc.repo()
		if err != nil {
			t.Fatal(err)
		}
		dist := zipf.MustNew(repo.N(), zipf.DefaultMean)
		for seed := uint64(1); seed <= uint64(tc.seeds); seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				w := newTwin(t, repo, repo.CacheSizeForRatio(0.05), seed, false)
				gen := workload.MustNewGenerator(dist, seed)
				for i := range tc.requests {
					w.request(i, gen.Next())
				}
				w.check("end")
				if w.evictions() == 0 {
					t.Fatal("no evictions; check vacuous")
				}
			})
		}
	}
}

// TestIndexedEquivalenceSegmented: under segment-granular residency with a
// pinned prefix, partial residents rank by their resident bytes, which the
// engine reports through OnResidentBytes on every insert and trim.
func TestIndexedEquivalenceSegmented(t *testing.T) {
	for _, frozen := range []bool{false, true} {
		t.Run(fmt.Sprintf("frozen=%v", frozen), func(t *testing.T) {
			repo := media.PaperRepository()
			w := newTwin(t, repo, repo.CacheSizeForRatio(0.05), 5, frozen,
				core.WithSegments(64*media.MB), core.WithPrefixAdmission(2))
			gen, err := workload.NewRangeGenerator(repo, zipf.MustNew(repo.N(), zipf.DefaultMean), 5,
				workload.DefaultRangeConfig())
			if err != nil {
				t.Fatal(err)
			}
			for i := range 3000 {
				w.requestRange(i, gen.Next())
			}
			w.check("end")
			if st := w.a.Stats(); st.Evictions == 0 || st.SegmentsEvicted == 0 {
				t.Fatalf("no trims or evictions (%+v); check vacuous", st)
			}
		})
	}
}

// TestIndexedEquivalenceCatalogEvents interleaves references with Warm, TTL
// expiry, Invalidate, Restore from a snapshot and Reset, for both the
// selection-time and the frozen-aging scores.
func TestIndexedEquivalenceCatalogEvents(t *testing.T) {
	for _, frozen := range []bool{false, true} {
		t.Run(fmt.Sprintf("frozen=%v", frozen), func(t *testing.T) {
			repo := media.PaperRepository()
			w := newTwin(t, repo, repo.CacheSizeForRatio(0.05), 3, frozen, core.WithTTL(400))
			gen := workload.MustNewGenerator(zipf.MustNew(repo.N(), zipf.DefaultMean), 3)
			var snap core.Snapshot
			for i := range 6000 {
				switch {
				case i%500 == 250:
					ids := []media.ClipID{media.ClipID(i%repo.N() + 1), media.ClipID((i*7)%repo.N() + 1)}
					w.a.Warm(ids)
					w.b.Warm(ids)
					w.check(fmt.Sprintf("warm at %d", i))
				case i%97 == 0:
					id := gen.Next()
					if fa, fb := w.a.Invalidate(id), w.b.Invalidate(id); fa != fb {
						t.Fatalf("step %d: invalidate freed %v vs %v", i, fa, fb)
					}
				case i == 2000:
					snap = w.a.Snapshot()
					if !reflect.DeepEqual(snap, w.b.Snapshot()) {
						t.Fatalf("step %d: snapshots diverged", i)
					}
				case i == 3000:
					w.check("before restore")
					if err := w.a.Restore(snap); err != nil {
						t.Fatal(err)
					}
					if err := w.b.Restore(snap); err != nil {
						t.Fatal(err)
					}
					w.check("restore")
				case i == 4500:
					w.a.Reset()
					w.b.Reset()
					w.check("reset")
				default:
					w.request(i, gen.Next())
				}
			}
			w.check("end")
			if st := w.a.Stats(); st.Evictions == 0 || st.Expired == 0 || st.Invalidated == st.Expired {
				t.Fatalf("trace missed evictions, expiries or invalidations (%+v)", st)
			}
		})
	}
}

// TestIndexedEquivalenceAdoption: clips that became resident without
// OnInsert are adopted at the current inflation by their first hit or by
// the next Victims call.
func TestIndexedEquivalenceAdoption(t *testing.T) {
	repo := media.PaperEquiRepository()
	host, err := core.New(repo, repo.CacheSizeForRatio(0.05), newReference(repo.N(), 2, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.MustNewGenerator(zipf.MustNew(repo.N(), zipf.DefaultMean), 1)
	for range 2000 {
		if _, err := host.Request(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	prod, ref := MustNew(repo.N(), 2, 4), newReference(repo.N(), 2, 4, false)
	now := vtime.Time(5000)
	for i := range 5 {
		a := prod.Victims(repo.Clip(1), host, 1, now)
		b := ref.Victims(repo.Clip(1), host, 1, now)
		if !reflect.DeepEqual(a, b) || prod.Inflation() != ref.inflation {
			t.Fatalf("call %d: production %v (L=%v), reference %v (L=%v)", i, a, prod.Inflation(), b, ref.inflation)
		}
	}
	if got := len(prod.slots); got != host.NumResident() {
		t.Fatalf("adopted %d slots, want %d", got, host.NumResident())
	}
	sameScores(t, "after Victims", prod, ref, host, now)
	// Clips the host admits next are unknown to both policies; two hits
	// on each reach them before any Victims call, after L has risen.
	var fresh []media.Clip
	for len(fresh) < 3 {
		id := gen.Next()
		out, err := host.Request(id)
		if err != nil {
			t.Fatal(err)
		}
		if out == core.MissCached {
			fresh = append(fresh, repo.Clip(id))
		}
	}
	for _, c := range fresh {
		for range 2 {
			now++
			prod.Record(c, now, true)
			ref.Record(c, now, true)
		}
	}
	sameScores(t, "after hits", prod, ref, host, now)
}

// TestIndexedEquivalenceIdleGaps drives the production policy and the
// reference directly, without an engine's one-tick clock, through a Zipf
// trace whose references are separated now and then by idle gaps longer
// than the horizon span. Every selection after a gap starts from keys
// evaluated at a horizon now in the past.
func TestIndexedEquivalenceIdleGaps(t *testing.T) {
	for _, frozen := range []bool{false, true} {
		t.Run(fmt.Sprintf("frozen=%v", frozen), func(t *testing.T) {
			repo := media.PaperRepository()
			var opts []Option
			if frozen {
				opts = append(opts, FrozenAging())
			}
			prod, ref := MustNew(repo.N(), 2, 6, opts...), newReference(repo.N(), 2, 6, frozen)
			view := newResidentSet(repo, repo.CacheSizeForRatio(0.05))
			gen := workload.MustNewGenerator(zipf.MustNew(repo.N(), zipf.DefaultMean), 6)
			gaps := randutil.NewSource(6)
			now := vtime.Time(0)
			evictions := 0
			for i := range 5000 {
				now++
				if gaps.Intn(16) == 0 {
					now += span + 1 + vtime.Time(gaps.Intn(2*span))
				}
				c := repo.Clip(gen.Next())
				hit := view.Resident(c.ID)
				prod.Record(c, now, hit)
				ref.Record(c, now, hit)
				if hit || c.Size > view.Capacity() {
					continue
				}
				for view.FreeBytes() < c.Size {
					need := c.Size - view.FreeBytes()
					a, b := prod.Victims(c, view, need, now), ref.Victims(c, view, need, now)
					if !reflect.DeepEqual(a, b) || prod.Inflation() != ref.inflation {
						t.Fatalf("step %d at %d: production %v (L=%v), reference %v (L=%v)",
							i, now, a, prod.Inflation(), b, ref.inflation)
					}
					view.remove(a[0])
					prod.OnEvict(a[0], now)
					ref.OnEvict(a[0], now)
					evictions++
				}
				view.add(c)
				prod.OnInsert(c, now)
				ref.OnInsert(c, now)
			}
			sameScores(t, "end", prod, ref, view, now+span)
			if evictions == 0 {
				t.Fatal("no evictions; check vacuous")
			}
		})
	}
}

func TestIndexedEquivalenceProperty(t *testing.T) {
	repo, err := media.EquiRepository(12, 10)
	if err != nil {
		t.Fatal(err)
	}
	check := func(ops []uint8, frozen bool) bool {
		w := newTwin(t, repo, 40, 9, frozen, core.WithTTL(30))
		for i, op := range ops {
			id := media.ClipID(int(op)%repo.N() + 1)
			switch op % 16 {
			case 0:
				w.a.Invalidate(id)
				w.b.Invalidate(id)
			case 1:
				w.a.Warm([]media.ClipID{id})
				w.b.Warm([]media.ClipID{id})
			default:
				w.request(i, id)
			}
		}
		w.check("end")
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexedResetAndWarm(t *testing.T) {
	repo, _ := media.EquiRepository(6, 10)
	p := MustNew(6, 2, 1)
	c, _ := core.New(repo, 20, p)
	c.Warm([]media.ClipID{1, 2})
	out, err := c.Request(3)
	if err != nil || out != core.MissCached {
		t.Fatalf("out=%v err=%v", out, err)
	}
	c.Reset()
	if len(p.slots) != 0 || p.slot(1) != nil || p.slot(3) != nil {
		t.Fatal("Reset must clear the slots")
	}
	if _, err := c.Request(1); err != nil {
		t.Fatal(err)
	}
}
