package igd

import (
	"fmt"
	"iter"
	"slices"
	"testing"
	"testing/quick"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/vtime"
	"mediacache/internal/workload"
	"mediacache/internal/zipf"
)

// residentSet is a minimal core.ResidentView for driving the policy
// without an engine: whole clips, resident or not, against a capacity.
type residentSet struct {
	repo     *media.Repository
	in       []bool // indexed by clip id
	n        int
	used     media.Bytes
	capacity media.Bytes
}

var _ core.ResidentView = (*residentSet)(nil)

func newResidentSet(repo *media.Repository, capacity media.Bytes) *residentSet {
	return &residentSet{repo: repo, in: make([]bool, repo.N()+1), capacity: capacity}
}

func (v *residentSet) add(c media.Clip) {
	v.in[c.ID] = true
	v.n++
	v.used += c.Size
}

func (v *residentSet) remove(id media.ClipID) {
	v.in[id] = false
	v.n--
	v.used -= v.repo.Clip(id).Size
}

func (v *residentSet) Resident(id media.ClipID) bool { return v.in[id] }

func (v *residentSet) Residents() iter.Seq[media.Clip] {
	return func(yield func(media.Clip) bool) { v.ForEachResident(yield) }
}

func (v *residentSet) ForEachResident(fn func(media.Clip) bool) {
	for id := 1; id < len(v.in); id++ {
		if v.in[id] && !fn(v.repo.Clip(media.ClipID(id))) {
			return
		}
	}
}

func (v *residentSet) NumResident() int { return v.n }

func (v *residentSet) ResidentBytes(id media.ClipID) media.Bytes {
	if v.in[id] {
		return v.repo.Clip(id).Size
	}
	return 0
}

func (v *residentSet) FreeBytes() media.Bytes { return v.capacity - v.used }
func (v *residentSet) Capacity() media.Bytes  { return v.capacity }

// checkHeap returns a description of the first violated heap invariant at
// now, or "" when all hold: slot positions are consistent, every parent's
// key is at most its children's, every key is the slot's score at the
// horizon (its frozen priority under the ablation), and — the property
// the pruning relies on — no key exceeds the slot's score at any time from
// now up to the horizon.
func checkHeap(p *Policy, now vtime.Time) string {
	indexed := 0
	for _, i := range p.pos {
		if i >= 0 {
			indexed++
		}
	}
	if indexed != len(p.slots) {
		return fmt.Sprintf("%d clips indexed, %d slots", indexed, len(p.slots))
	}
	for i := range p.slots {
		s := &p.slots[i]
		if int(p.pos[s.id]) != i {
			return fmt.Sprintf("clip %d at slot %d, pos says %d", s.id, i, p.pos[s.id])
		}
		if parent := (i - 1) / 2; i > 0 && p.slots[parent].lb > s.lb {
			return fmt.Sprintf("slot %d key %v below its parent's %v", i, s.lb, p.slots[parent].lb)
		}
		if p.freezeAging {
			if s.lb != s.frozen {
				return fmt.Sprintf("clip %d key %v, frozen priority %v", s.id, s.lb, s.frozen)
			}
			continue
		}
		if want := s.score(p.horizon); s.lb != want {
			return fmt.Sprintf("clip %d key %v, score at horizon %d is %v", s.id, s.lb, p.horizon, want)
		}
		for t := now; t <= p.horizon; t++ {
			if h := s.score(t); s.lb > h {
				return fmt.Sprintf("clip %d key %v exceeds its score %v at %d (now %d, horizon %d)",
					s.id, s.lb, h, t, now, p.horizon)
			}
		}
	}
	return ""
}

// checkSelection returns a description of how the last Victims call at now
// differed from a brute-force minimum over every slot, or "".
func checkSelection(p *Policy, victim media.ClipID, now vtime.Time) string {
	var want []media.ClipID
	var minH float64
	for i := range p.slots {
		s := &p.slots[i]
		h := s.frozen
		if !p.freezeAging {
			h = s.score(now)
		}
		switch {
		case i == 0 || h < minH:
			minH, want = h, append(want[:0], s.id)
		case h == minH:
			want = append(want, s.id)
		}
	}
	slices.Sort(want)
	got := slices.Sorted(slices.Values(p.ties))
	if !slices.Equal(got, want) || !slices.Contains(want, victim) {
		return fmt.Sprintf("victim %d from ties %v, brute force ties %v (min %v)", victim, got, want, minH)
	}
	if p.inflation < minH {
		return fmt.Sprintf("inflation %v below the evicted score %v", p.inflation, minH)
	}
	return ""
}

// TestHeapInvariantProperty drives the policy directly through references,
// inserts, evictions, resident-byte changes in both directions, clips left
// for adoption and victim selections at irregular times, including idle
// gaps past the horizon, and checks the heap after every operation and each
// selection against a brute-force minimum.
func TestHeapInvariantProperty(t *testing.T) {
	clips := make([]media.Clip, 20)
	for i := range clips {
		clips[i] = media.Clip{ID: media.ClipID(i + 1), Size: media.Bytes(10 * (1 + i%3))}
	}
	repo, err := media.NewRepository(clips)
	if err != nil {
		t.Fatal(err)
	}
	var gaps, selections int
	check := func(ops [256]uint16, frozen bool) bool {
		var opts []Option
		if frozen {
			opts = append(opts, FrozenAging())
		}
		p := MustNew(repo.N(), 2, 7, opts...)
		view := newResidentSet(repo, repo.TotalSize())
		now := vtime.Time(0)
		for step, op := range ops {
			c := repo.Clip(media.ClipID(int(op>>3)%repo.N() + 1))
			arg := int(op >> 7)
			now += vtime.Time(1 + arg%3)
			resident := view.Resident(c.ID)
			var what string
			switch op % 8 {
			case 0, 1:
				what = "reference"
				p.Record(c, now, resident)
			case 2:
				what = "insert"
				if !resident {
					p.Record(c, now, false)
					view.add(c)
					p.OnInsert(c, now)
				}
			case 3:
				what = "evict"
				if resident {
					view.remove(c.ID)
					p.OnEvict(c.ID, now)
				}
			case 4:
				what = "resident bytes"
				if resident {
					p.OnResidentBytes(c, media.Bytes(1+arg%int(c.Size)), now)
				}
			case 5:
				what = "place without OnInsert"
				if !resident {
					view.add(c)
				}
			case 6:
				what = "victims"
				if view.NumResident() == 0 {
					break
				}
				selections++
				victim := p.Victims(c, view, 1, now)[0]
				if msg := checkSelection(p, victim, now); msg != "" {
					t.Errorf("step %d (frozen=%v): %s", step, frozen, msg)
					return false
				}
				if !frozen && now > p.horizon {
					t.Errorf("step %d: Victims at %d left the horizon at %d", step, now, p.horizon)
					return false
				}
				view.remove(victim)
				p.OnEvict(victim, now)
			case 7:
				what = "tick"
				if arg%2 == 0 {
					what = "idle gap"
					gaps++
					now += span + vtime.Time(arg)
				}
			}
			if msg := checkHeap(p, now); msg != "" {
				t.Errorf("step %d %s of clip %d (frozen=%v): %s", step, what, c.ID, frozen, msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d idle gaps, %d selections", gaps, selections)
	if gaps == 0 || selections == 0 {
		t.Fatalf("%d idle gaps, %d selections; check vacuous", gaps, selections)
	}
}

// TestPruneRate reports how many scores a Victims call evaluates on the
// 20,004-clip 5% Zipf trace, against the residents a scan would score, and
// requires the heap walk to evaluate fewer than a tenth of them.
func TestPruneRate(t *testing.T) {
	repo, err := media.VariableRepository(20004)
	if err != nil {
		t.Fatal(err)
	}
	p := MustNew(repo.N(), 2, 11)
	cache, err := core.New(repo, repo.CacheSizeForRatio(0.05), p)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.MustNewGenerator(zipf.MustNew(repo.N(), zipf.DefaultMean), 11)
	request := func() {
		if _, err := cache.Request(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	for range 30000 {
		request()
	}
	evals, calls := p.evals, cache.Stats().VictimCalls
	const measured = 20000
	residents := 0
	for range measured {
		residents += cache.NumResident()
		request()
	}
	calls = cache.Stats().VictimCalls - calls
	if calls == 0 {
		t.Fatal("no victim calls; check vacuous")
	}
	perCall := float64(p.evals-evals) / float64(calls)
	meanResidents := float64(residents) / measured
	t.Logf("%.1f scores evaluated per Victims call over %d calls, %.0f residents (%.2f%%)",
		perCall, calls, meanResidents, 100*perCall/meanResidents)
	if perCall >= 0.1*meanResidents {
		t.Fatalf("%.1f evaluations per call, not below 10%% of %.0f residents", perCall, meanResidents)
	}
}
