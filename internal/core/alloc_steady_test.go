package core_test

// alloc_steady_test.go gates the ISSUE 4 tentpole's allocation guarantee: in
// steady state (cache warm, evictions ongoing) the indexed victim-selection
// paths must not allocate per Victims call. The policies measured here are
// the walk-only selectors whose Victims has no side effects beyond reusable
// buffers (IGD's also raises its inflation, which allocates nothing); the
// pop-based selectors (LRU-SK, DYNSimple) mutate their indexes per call and
// are covered by the differential and property suites instead.
// `make alloccheck` runs this file alongside the request-path gates.

import (
	"runtime"
	"testing"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/policy/gdfreq"
	"mediacache/internal/policy/gdsp"
	"mediacache/internal/policy/greedydual"
	"mediacache/internal/policy/igd"
	"mediacache/internal/policy/lfu"
	"mediacache/internal/policy/lruk"
	"mediacache/internal/policy/random"
	"mediacache/internal/policy/simple"
	"mediacache/internal/vtime"
	"mediacache/internal/workload"
	"mediacache/internal/zipf"
)

// steadyVictimsAllocs warms a cache into an eviction-heavy steady state and
// measures the allocations of direct Victims calls against the live resident
// view.
func steadyVictimsAllocs(t *testing.T, policy core.Policy) float64 {
	t.Helper()
	repo := media.PaperRepository()
	cache, err := core.New(repo, repo.CacheSizeForRatio(0.05), policy)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.MustNewGenerator(zipf.MustNew(repo.N(), zipf.DefaultMean), 21)
	for i := 0; i < 5000; i++ {
		if _, err := cache.Request(gen.Next()); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if cache.Stats().Evictions == 0 {
		t.Fatal("steady-state drive produced no evictions; measurement vacuous")
	}
	// An incoming clip the policy must make room for. Asking for a few
	// clips' worth of space exercises the multi-victim walk.
	incoming := repo.Clip(1)
	need := incoming.Size * 3
	now := vtime.Time(1 << 20)
	return testing.AllocsPerRun(200, func() {
		if victims := policy.Victims(incoming, cache, need, now); len(victims) == 0 {
			t.Fatal("no victims from a full cache")
		}
	})
}

// TestVictimsZeroAllocsSteadyState is the acceptance gate for the indexed
// eviction core: GreedyDual and LRU-K (and the other walk-only selectors)
// must select victims with zero allocations per call once warm.
func TestVictimsZeroAllocsSteadyState(t *testing.T) {
	uniform := make([]float64, media.PaperRepository().N())
	for i := range uniform {
		uniform[i] = 1 / float64(len(uniform))
	}
	policies := []core.Policy{
		greedydual.New(greedydual.UniformCost, 42),
		gdfreq.New(nil, 42),
		gdsp.MustNew(nil, 0, 42),
		lruk.MustNew(media.PaperRepository().N(), 2),
		lfu.New(),
		lfu.NewDA(),
		simple.MustNew(uniform),
		random.New(42),
		igd.MustNew(media.PaperRepository().N(), 2, 42),
	}
	for _, p := range policies {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			if avg := steadyVictimsAllocs(t, p); avg != 0 {
				t.Errorf("steady-state Victims allocs/op = %v, want 0", avg)
			}
		})
	}
}

// TestRequestZeroAllocsEvictingSteadyState gates the whole request path in
// an eviction-heavy steady state: IGD on the 20,004-clip variable
// repository at a 5% cache must service Cache.Request — hits, misses,
// victim selection and evictions — without allocating. The trace is played
// twice: the first pass grows IGD's slot and tie buffers to their
// high-water marks, Reset keeps those buffers, and the identical second
// pass is measured after the same warm-up. The count comes from
// runtime.MemStats over the whole window rather than
// testing.AllocsPerRun, whose integer division would read a fractional
// per-request rate as 0.
func TestRequestZeroAllocsEvictingSteadyState(t *testing.T) {
	repo, err := media.VariableRepository(20004)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := core.New(repo, repo.CacheSizeForRatio(0.05), igd.MustNew(repo.N(), 2, 42))
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.MustNewGenerator(zipf.MustNew(repo.N(), zipf.DefaultMean), 1)
	trace := make([]media.ClipID, 25000)
	for i := range trace {
		trace[i] = gen.Next()
	}
	run := func(ids []media.ClipID) {
		for _, id := range ids {
			if _, err := cache.Request(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(trace)
	cache.Reset()
	warm, timed := trace[:20000], trace[20000:]
	run(warm)
	before := cache.Stats()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run(timed)
	runtime.ReadMemStats(&m1)
	if ev := cache.Stats().Evictions - before.Evictions; ev < uint64(len(timed))/10 {
		t.Fatalf("only %d evictions in %d timed requests; measurement not eviction-heavy", ev, len(timed))
	}
	if allocs := m1.Mallocs - m0.Mallocs; allocs != 0 {
		t.Errorf("evicting Request allocated %d times in %d calls (%.3f per call), want 0",
			allocs, len(timed), float64(allocs)/float64(len(timed)))
	}
}
