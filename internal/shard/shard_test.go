package shard

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/policy/registry"
	"mediacache/internal/randutil"
	"mediacache/internal/vtime"

	// Register the built-in policies for registry.Build.
	_ "mediacache/internal/policy/all"
)

const testRatio = 0.125

// testTrace generates a deterministic request trace over the paper
// repository.
func testTrace(n int, seed uint64) []media.ClipID {
	repo := media.PaperRepository()
	src := randutil.NewSource(seed)
	ids := make([]media.ClipID, n)
	for i := range ids {
		ids[i] = media.ClipID(src.Intn(repo.N()) + 1)
	}
	return ids
}

func newTestPool(t *testing.T, shards int, fetch core.FetchFunc) *Pool {
	t.Helper()
	repo := media.PaperRepository()
	p, err := New(Config{
		Policy:   "greedydual",
		Repo:     repo,
		Capacity: repo.CacheSizeForRatio(testRatio),
		Seed:     7,
		Shards:   shards,
		Fetch:    fetch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// failEveryNth builds a deterministic fetch hook whose every n-th call
// fails (counting from 1).
func failEveryNth(n uint64) core.FetchFunc {
	var calls atomic.Uint64
	return func(media.Clip, vtime.Time) error {
		if calls.Add(1)%n == 0 {
			return errors.New("injected fetch failure")
		}
		return nil
	}
}

// TestSingleShardEquivalence drives a 1-shard pool and a bare cache built
// from the same seed and policy through the same trace and requires
// identical outcomes, statistics, resident sets and snapshot bytes.
func TestSingleShardEquivalence(t *testing.T) {
	for name, fetches := range map[string]func() (poolFetch, cacheFetch core.FetchFunc){
		"no-fetch":    func() (core.FetchFunc, core.FetchFunc) { return nil, nil },
		"faulty-link": func() (core.FetchFunc, core.FetchFunc) { return failEveryNth(7), failEveryNth(7) },
	} {
		t.Run(name, func(t *testing.T) {
			repo := media.PaperRepository()
			capacity := repo.CacheSizeForRatio(testRatio)
			poolFetch, cacheFetch := fetches()

			pool, err := New(Config{
				Policy: "greedydual", Repo: repo, Capacity: capacity,
				Seed: 7, Shards: 1, Fetch: poolFetch,
			})
			if err != nil {
				t.Fatal(err)
			}
			pol, err := registry.Build("greedydual", repo, nil, 7)
			if err != nil {
				t.Fatal(err)
			}
			var opts []core.Option
			if cacheFetch != nil {
				opts = append(opts, core.WithFetch(cacheFetch))
			}
			cache, err := core.New(repo, capacity, pol, opts...)
			if err != nil {
				t.Fatal(err)
			}

			for i, id := range testTrace(5000, 42) {
				po, perr := pool.Request(id)
				co, cerr := cache.Request(id)
				if po != co || (perr == nil) != (cerr == nil) {
					t.Fatalf("request %d (clip %d): pool %v/%v, cache %v/%v",
						i, id, po, perr, co, cerr)
				}
			}
			if ps, cs := pool.Stats(), cache.Stats(); ps != cs {
				t.Fatalf("stats diverged:\npool  %+v\ncache %+v", ps, cs)
			}
			pids, cids := pool.ResidentIDs(), core.CollectResidentIDs(cache)
			if len(pids) != len(cids) {
				t.Fatalf("resident sets diverged: %v vs %v", pids, cids)
			}
			for i := range pids {
				if pids[i] != cids[i] {
					t.Fatalf("resident sets diverged at %d: %v vs %v", i, pids, cids)
				}
			}
			var pbuf, cbuf bytes.Buffer
			if err := pool.Snapshot().WriteSnapshot(&pbuf); err != nil {
				t.Fatal(err)
			}
			if err := cache.Snapshot().WriteSnapshot(&cbuf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pbuf.Bytes(), cbuf.Bytes()) {
				t.Fatal("snapshot bytes diverged between 1-shard pool and bare cache")
			}
		})
	}
}

// TestShardedDeterminism requires two identically configured multi-shard
// pools to agree on every outcome and final state for the same trace.
func TestShardedDeterminism(t *testing.T) {
	trace := testTrace(5000, 99)
	run := func() (core.Stats, []media.ClipID, []core.Outcome) {
		p := newTestPool(t, 4, failEveryNth(11))
		outs := make([]core.Outcome, len(trace))
		for i, id := range trace {
			out, err := p.Request(id)
			if err != nil {
				t.Fatal(err)
			}
			outs[i] = out
		}
		return p.Stats(), p.ResidentIDs(), outs
	}
	s1, ids1, o1 := run()
	s2, ids2, o2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged across runs:\n%+v\n%+v", s1, s2)
	}
	if len(ids1) != len(ids2) {
		t.Fatalf("resident sets diverged: %v vs %v", ids1, ids2)
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("resident sets diverged at %d", i)
		}
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("outcome %d diverged: %v vs %v", i, o1[i], o2[i])
		}
	}
}

// TestCoalescing piles concurrent misses for one clip onto a blocked fetch
// and requires exactly one fetch execution, with the waiters served as
// hits once the leader materializes the clip.
func TestCoalescing(t *testing.T) {
	const waiters = 7
	release := make(chan struct{})
	var calls atomic.Uint64
	fetch := func(media.Clip, vtime.Time) error {
		calls.Add(1)
		<-release
		return nil
	}
	p := newTestPool(t, 4, fetch)

	outcomes := make(chan core.Outcome, waiters+1)
	var wg sync.WaitGroup
	for i := 0; i < waiters+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := p.Request(1)
			if err != nil {
				t.Error(err)
			}
			outcomes <- out
		}()
	}
	// Every follower increments the coalesced counter before waiting, so
	// once it reaches `waiters` all requests are riding the single fetch.
	deadline := time.Now().Add(5 * time.Second)
	for p.Coalesced() < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests coalesced", p.Coalesced(), waiters)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()
	close(outcomes)

	if got := calls.Load(); got != 1 {
		t.Fatalf("fetch executed %d times, want 1", got)
	}
	if got := p.Fetches(); got != 1 {
		t.Fatalf("Fetches() = %d, want 1", got)
	}
	var hits, cached int
	for out := range outcomes {
		switch out {
		case core.Hit:
			hits++
		case core.MissCached:
			cached++
		default:
			t.Fatalf("unexpected outcome %v", out)
		}
	}
	if cached != 1 || hits != waiters {
		t.Fatalf("outcomes: %d cached + %d hits, want 1 + %d", cached, hits, waiters)
	}
	s := p.Stats()
	if s.Requests != waiters+1 || s.Hits != waiters {
		t.Fatalf("stats: %+v", s)
	}
}

// TestCoalescedFailureDegradesAll shares one failed fetch across a burst
// and requires every coalesced request to degrade — the accounting a
// client sees must not depend on whether its fetch was the leader.
func TestCoalescedFailureDegradesAll(t *testing.T) {
	const requests = 6
	release := make(chan struct{})
	var calls atomic.Uint64
	fetch := func(media.Clip, vtime.Time) error {
		calls.Add(1)
		<-release
		return errors.New("link down")
	}
	p := newTestPool(t, 4, fetch)

	var wg sync.WaitGroup
	outcomes := make(chan core.Outcome, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := p.Request(1)
			if err != nil {
				t.Error(err)
			}
			outcomes <- out
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Coalesced() < requests-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests coalesced", p.Coalesced(), requests-1)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()
	close(outcomes)

	if got := calls.Load(); got != 1 {
		t.Fatalf("fetch executed %d times, want 1", got)
	}
	for out := range outcomes {
		if out != core.MissDegraded {
			t.Fatalf("outcome %v, want MissDegraded", out)
		}
	}
	s := p.Stats()
	if s.Requests != requests || s.FetchFailed != requests || s.Hits != 0 {
		t.Fatalf("stats: %+v", s)
	}
	if s.BytesFailed != s.BytesReferenced {
		t.Fatalf("byte accounting: failed %v, referenced %v", s.BytesFailed, s.BytesReferenced)
	}
}

// TestConcurrentStatsIdentities hammers a sharded pool from many
// goroutines over a faulty link and checks the aggregated snapshot against
// outcomes counted at the driver:
//
//	Requests == Hits + MissCached + Bypassed + FetchFailed
//	BytesHit + BytesFetched + BytesFailed == BytesReferenced
func TestConcurrentStatsIdentities(t *testing.T) {
	const (
		goroutines = 8
		perG       = 400
	)
	p := newTestPool(t, 4, failEveryNth(5))
	repo := p.Repository()

	var hits, cached, bypassed, degraded atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := randutil.NewSource(uint64(1000 + g))
			for i := 0; i < perG; i++ {
				id := media.ClipID(src.Intn(repo.N()) + 1)
				out, err := p.Request(id)
				if err != nil {
					t.Error(err)
					return
				}
				switch out {
				case core.Hit:
					hits.Add(1)
				case core.MissCached:
					cached.Add(1)
				case core.MissBypassed, core.MissTooLarge:
					bypassed.Add(1)
				case core.MissDegraded:
					degraded.Add(1)
				default:
					t.Errorf("unexpected outcome %v", out)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	s := p.Stats()
	if s.Requests != goroutines*perG {
		t.Fatalf("Requests = %d, want %d", s.Requests, goroutines*perG)
	}
	if s.Hits != hits.Load() || s.Bypassed != bypassed.Load() || s.FetchFailed != degraded.Load() {
		t.Fatalf("driver counted hits=%d bypassed=%d degraded=%d; stats %+v",
			hits.Load(), bypassed.Load(), degraded.Load(), s)
	}
	if s.Requests != s.Hits+cached.Load()+s.Bypassed+s.FetchFailed {
		t.Fatalf("outcome identity violated: %+v (cached %d)", s, cached.Load())
	}
	if s.BytesHit+s.BytesFetched+s.BytesFailed != s.BytesReferenced {
		t.Fatalf("byte identity violated: %+v", s)
	}
	// Per-shard counters must sum to the aggregate.
	var perShard core.Stats
	for _, st := range p.ShardStats() {
		perShard = perShard.Add(st.Stats)
	}
	if perShard != s {
		t.Fatalf("ShardStats sum %+v != Stats %+v", perShard, s)
	}
}

// TestCapacitySplit verifies the remainder-aware partitioning: shard
// capacities sum to the configured total and differ by at most one byte.
func TestCapacitySplit(t *testing.T) {
	repo := media.PaperRepository()
	const total = 103*media.MB + 3
	p, err := New(Config{Policy: "greedydual", Repo: repo, Capacity: total, Seed: 1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var sum media.Bytes
	stats := p.ShardStats()
	for _, st := range stats {
		sum += st.Capacity
	}
	if sum != total {
		t.Fatalf("shard capacities sum to %v, want %v", sum, total)
	}
	for _, st := range stats {
		if diff := st.Capacity - stats[len(stats)-1].Capacity; diff < 0 || diff > 1 {
			t.Fatalf("uneven split: %+v", stats)
		}
	}
	if got := p.Capacity(); got != total {
		t.Fatalf("Capacity() = %v, want %v", got, total)
	}
}

// TestRouting checks that the clip→shard mapping is stable and reaches
// every shard for the paper repository's ID range.
func TestRouting(t *testing.T) {
	p := newTestPool(t, 4, nil)
	seenByShard := make([]int, p.NumShards())
	for id := 1; id <= p.Repository().N(); id++ {
		i := p.ShardFor(media.ClipID(id))
		if j := p.ShardFor(media.ClipID(id)); j != i {
			t.Fatalf("ShardFor(%d) unstable: %d then %d", id, i, j)
		}
		seenByShard[i]++
	}
	for i, n := range seenByShard {
		if n == 0 {
			t.Fatalf("shard %d owns no clips: %v", i, seenByShard)
		}
	}
}

// TestSnapshotRestore round-trips a multi-shard pool's state, including
// into a pool with a different shard count.
func TestSnapshotRestore(t *testing.T) {
	p := newTestPool(t, 4, nil)
	for _, id := range testTrace(3000, 5) {
		if _, err := p.Request(id); err != nil {
			t.Fatal(err)
		}
	}
	snap := p.Snapshot()
	wantIDs := p.ResidentIDs()
	wantStats := p.Stats()

	for _, shards := range []int{4, 2, 1} {
		fresh := newTestPool(t, shards, nil)
		if err := fresh.Restore(snap); err != nil {
			t.Fatalf("restore into %d shards: %v", shards, err)
		}
		gotIDs := fresh.ResidentIDs()
		if len(gotIDs) != len(wantIDs) {
			t.Fatalf("%d shards: resident %v, want %v", shards, gotIDs, wantIDs)
		}
		for i := range gotIDs {
			if gotIDs[i] != wantIDs[i] {
				t.Fatalf("%d shards: resident %v, want %v", shards, gotIDs, wantIDs)
			}
		}
		if got := fresh.Stats(); got != wantStats {
			t.Fatalf("%d shards: stats %+v, want %+v", shards, got, wantStats)
		}
		if fresh.UsedBytes() != p.UsedBytes() {
			t.Fatalf("%d shards: used %v, want %v", shards, fresh.UsedBytes(), p.UsedBytes())
		}
	}

	// A corrupt snapshot must be rejected without touching the pool.
	fresh := newTestPool(t, 2, nil)
	bad := core.Snapshot{ResidentIDs: []media.ClipID{1, 1}}
	if err := fresh.Restore(bad); err == nil {
		t.Fatal("duplicate-id snapshot accepted")
	}
	bad = core.Snapshot{ResidentIDs: []media.ClipID{media.ClipID(p.Repository().N() + 1)}}
	if err := fresh.Restore(bad); err == nil {
		t.Fatal("unknown-clip snapshot accepted")
	}
	if fresh.NumResident() != 0 || fresh.Stats().Requests != 0 {
		t.Fatal("failed restore mutated the pool")
	}
}

// TestReset clears residency and statistics on every shard.
func TestReset(t *testing.T) {
	p := newTestPool(t, 4, nil)
	for _, id := range testTrace(500, 3) {
		if _, err := p.Request(id); err != nil {
			t.Fatal(err)
		}
	}
	if p.NumResident() == 0 {
		t.Fatal("pool empty before reset")
	}
	p.Reset()
	if p.NumResident() != 0 || p.UsedBytes() != 0 {
		t.Fatal("reset left residents behind")
	}
	if s := p.Stats(); s != (core.Stats{}) {
		t.Fatalf("reset left stats behind: %+v", s)
	}
}

// TestResidentsIterator checks merged ascending iteration and early break.
func TestResidentsIterator(t *testing.T) {
	p := newTestPool(t, 4, nil)
	for _, id := range testTrace(1000, 8) {
		if _, err := p.Request(id); err != nil {
			t.Fatal(err)
		}
	}
	want := p.ResidentIDs()
	var got []media.ClipID
	for c := range p.Residents() {
		got = append(got, c.ID)
	}
	if len(got) != len(want) {
		t.Fatalf("Residents yielded %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("order diverged at %d: %v vs %v", i, got, want)
		}
		if i > 0 && got[i] <= got[i-1] {
			t.Fatalf("not strictly ascending at %d: %v", i, got)
		}
	}
	n := 0
	for range p.Residents() {
		n++
		break
	}
	if n != 1 {
		t.Fatalf("early break yielded %d, want 1", n)
	}
}

// TestConfigValidation covers constructor errors.
func TestConfigValidation(t *testing.T) {
	repo := media.PaperRepository()
	if _, err := New(Config{Policy: "greedydual", Capacity: media.MB}); err == nil {
		t.Fatal("nil repo accepted")
	}
	if _, err := New(Config{Policy: "greedydual", Repo: repo, Capacity: 3, Shards: 8}); err == nil {
		t.Fatal("capacity smaller than shard count accepted")
	}
	if _, err := New(Config{Policy: "no-such-policy", Repo: repo, Capacity: media.MB, Shards: 2}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestFlightSequentialNotShared ensures results are shared only within an
// overlapping burst: a fetch that has settled is not a cache.
func TestFlightSequentialNotShared(t *testing.T) {
	var g flightGroup
	g.init()
	calls := 0
	for i := 0; i < 3; i++ {
		if err := g.do(flightKey{id: 1, seg: wholeClip}, func() error { calls++; return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 3 {
		t.Fatalf("sequential do ran fn %d times, want 3", calls)
	}
	if g.coalesced.Load() != 0 {
		t.Fatalf("sequential do coalesced %d times", g.coalesced.Load())
	}
}

// TestFlightRecycledCallsKeepResults drives bursts of coalesced callers
// through one key. Settled calls are recycled across bursts, so every
// caller must still see its own burst's result, never a neighbour's.
func TestFlightRecycledCallsKeepResults(t *testing.T) {
	var g flightGroup
	g.init()
	key := flightKey{id: 1, seg: wholeClip}
	const callers = 4
	for burst := 0; burst < 5; burst++ {
		want := fmt.Errorf("burst %d", burst)
		joined := g.coalesced.Load() + callers - 1
		started, gate := make(chan struct{}), make(chan struct{})
		errs := make(chan error, callers)
		go func() {
			errs <- g.do(key, func() error { close(started); <-gate; return want })
		}()
		<-started
		for i := 1; i < callers; i++ {
			go func() { errs <- g.do(key, func() error { return errors.New("joiner led a flight") }) }()
		}
		for g.coalesced.Load() < joined {
			time.Sleep(time.Millisecond)
		}
		close(gate)
		for i := 0; i < callers; i++ {
			if err := <-errs; err != want {
				t.Fatalf("burst %d: caller got %v, want %v", burst, err, want)
			}
		}
	}
	if len(g.free) != 1 {
		t.Errorf("free list holds %d calls after serial bursts, want 1", len(g.free))
	}
}
