package shard

import (
	"testing"

	"mediacache/internal/media"
	"mediacache/internal/randutil"
	"mediacache/internal/vtime"
	"mediacache/internal/zipf"
)

// TestPoolRequestAllocs bounds the pool's per-call allocations: the
// published-view hit allocates nothing, and a Zipf mix of hits and fetched
// misses stays within a fixed budget per call for each of Request,
// RequestRange and a one-item RequestBatch. The budgets are the counts the
// three routes had as separate code paths; the one pipeline must not
// exceed them. `make alloccheck` runs it beside the engine's gates.
func TestPoolRequestAllocs(t *testing.T) {
	repo := media.PaperRepository()
	p, err := New(Config{
		Policy:   "lru",
		Repo:     repo,
		Capacity: repo.CacheSizeForRatio(testRatio),
		Seed:     7,
		Shards:   4,
		Fetch:    func(media.Clip, vtime.Time) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	dist := zipf.MustNew(repo.N(), zipf.DefaultMean)
	src := randutil.NewSource(31)
	trace := make([]media.ClipID, 4096)
	for i := range trace {
		trace[i] = media.ClipID(dist.Sample(src))
	}
	for _, id := range trace {
		if _, err := p.Request(id); err != nil {
			t.Fatal(err)
		}
	}
	hot := p.ResidentIDs()[0]
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := p.Request(hot); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("fast-path hit allocs/op = %v, want 0", avg)
	}

	for _, tc := range []struct {
		name string
		max  float64
		call func(id media.ClipID) error
	}{
		{"Request", 4, func(id media.ClipID) error {
			_, err := p.Request(id)
			return err
		}},
		{"RequestRange", 2, func(id media.ClipID) error {
			_, err := p.RequestRange(id, 0, media.MB)
			return err
		}},
		{"RequestBatch/1", 14, func(id media.ClipID) error {
			return p.RequestBatch([]BatchItem{{ID: id}})[0].Err
		}},
	} {
		k := 0
		avg := testing.AllocsPerRun(len(trace), func() {
			if err := tc.call(trace[k%len(trace)]); err != nil {
				t.Fatal(err)
			}
			k++
		})
		t.Logf("%s: %v allocs/op", tc.name, avg)
		if avg > tc.max {
			t.Errorf("%s allocs/op = %v, want <= %v", tc.name, avg, tc.max)
		}
	}
}
