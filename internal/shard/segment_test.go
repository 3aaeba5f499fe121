package shard

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/policy/registry"
	"mediacache/internal/randutil"
	"mediacache/internal/vtime"
)

const testSegSize = 256 * media.MB

// segFaultByKey builds a deterministic, call-order-independent segment fetch
// hook: the fetch of segment seg of clip id fails iff (id*31+seg) % mod == 0.
// Order independence matters because a pool fetches a range's missing
// segments concurrently.
func segFaultByKey(mod int64) core.SegmentFetchFunc {
	return func(clip media.Clip, seg int32, _ vtime.Time) error {
		if (int64(clip.ID)*31+int64(seg))%mod == 0 {
			return errors.New("injected segment fetch failure")
		}
		return nil
	}
}

// rangeTrace generates a deterministic trace of prefix-biased range
// requests: mostly ranges starting at byte 0 (the streaming-startup pattern
// prefix caching targets), occasionally interior ranges.
func rangeTrace(n int, seed uint64) []struct {
	id            media.ClipID
	start, length media.Bytes
} {
	repo := media.PaperRepository()
	src := randutil.NewSource(seed)
	out := make([]struct {
		id            media.ClipID
		start, length media.Bytes
	}, n)
	for i := range out {
		id := media.ClipID(src.Intn(repo.N()) + 1)
		clip := repo.Clip(id)
		var start media.Bytes
		if src.Intn(4) == 0 { // every 4th request seeks into the clip
			start = media.Bytes(src.Intn(int(clip.Size)))
		}
		length := media.Bytes(src.Intn(int(clip.Size-start))) + 1
		out[i] = struct {
			id            media.ClipID
			start, length media.Bytes
		}{id, start, length}
	}
	return out
}

// TestSegmentedSingleShardEquivalence drives a 1-shard segmented pool and a
// bare segmented cache built from the same seed through the same range trace
// under the same deterministic per-segment fault profile, and requires
// identical outcomes, statistics and snapshot bytes.
func TestSegmentedSingleShardEquivalence(t *testing.T) {
	repo := media.PaperRepository()
	capacity := repo.CacheSizeForRatio(testRatio)
	fault := segFaultByKey(11)

	pool, err := New(Config{
		Policy: "greedydual", Repo: repo, Capacity: capacity,
		Seed: 7, Shards: 1,
		SegmentSize: testSegSize, PrefixSegments: 2, SegmentFetch: fault,
	})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := registry.Build("greedydual", repo, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := core.New(repo, capacity, pol,
		core.WithSegments(testSegSize), core.WithPrefixAdmission(2),
		core.WithSegmentFetch(fault))
	if err != nil {
		t.Fatal(err)
	}

	for i, r := range rangeTrace(3000, 99) {
		pr, perr := pool.RequestRange(r.id, r.start, r.length)
		cr, cerr := cache.RequestRange(r.id, r.start, r.length)
		if pr != cr || (perr == nil) != (cerr == nil) {
			t.Fatalf("range %d (clip %d [%d,+%d)): pool %+v/%v, cache %+v/%v",
				i, r.id, r.start, r.length, pr, perr, cr, cerr)
		}
	}
	ps, cs := pool.Stats(), cache.Stats()
	if ps != cs {
		t.Fatalf("stats diverged:\npool  %+v\ncache %+v", ps, cs)
	}
	if ps.BytesHit+ps.BytesFetched+ps.BytesFailed != ps.BytesReferenced {
		t.Fatalf("byte identity broken: %+v", ps)
	}
	if ps.PartialHits == 0 || ps.SegmentsEvicted == 0 {
		t.Fatalf("trace too tame to exercise segmentation: %+v", ps)
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
}

// TestPerSegmentCoalescing pins the per-(clip, segment) singleflight: G
// concurrent requests for the same cold range execute each segment's fetch
// exactly once while every other requester waits for that leader.
func TestPerSegmentCoalescing(t *testing.T) {
	repo := media.PaperRepository()
	clip := repo.Clip(1) // 3.5 GB: 14 segments of 256 MB
	const G = 8
	reqSegs := int((media.GB + testSegSize - 1) / testSegSize) // first GB: 4 segments

	gate := make(chan struct{})
	var perSeg [32]atomic.Uint64
	fetch := func(_ media.Clip, seg int32, _ vtime.Time) error {
		perSeg[seg].Add(1)
		<-gate
		return nil
	}
	pool, err := New(Config{
		Policy: "greedydual", Repo: repo, Capacity: repo.TotalSize(),
		Seed: 7, Shards: 4, SegmentSize: testSegSize, SegmentFetch: fetch,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(G)
	for g := 0; g < G; g++ {
		go func() {
			defer wg.Done()
			res, err := pool.RequestRange(clip.ID, 0, media.GB)
			if err != nil {
				t.Errorf("RequestRange: %v", err)
				return
			}
			if res.BytesHit+res.BytesFetched != media.GB {
				t.Errorf("delivered %v hit + %v fetched, want %v total",
					res.BytesHit, res.BytesFetched, media.GB)
			}
		}()
	}
	// All G requests miss the same reqSegs segments. Wait until each segment
	// has its flight leader parked on the gate and every other requester has
	// joined (coalesced increments at join time), then release the leaders.
	deadline := time.Now().Add(5 * time.Second)
	wantJoins := uint64((G - 1) * reqSegs)
	for pool.Coalesced() < wantJoins {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced %d after 5s, want %d", pool.Coalesced(), wantJoins)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for seg := 0; seg < reqSegs; seg++ {
		if n := perSeg[seg].Load(); n != 1 {
			t.Errorf("segment %d fetched %d times, want 1", seg, n)
		}
	}
	if got := pool.Fetches(); got != uint64(reqSegs) {
		t.Errorf("logical fetches = %d, want %d", got, reqSegs)
	}
	if got := pool.Coalesced(); got != wantJoins {
		t.Errorf("coalesced = %d, want %d", got, wantJoins)
	}
	if got := pool.ResidentBytes(clip.ID); got != media.GB {
		t.Errorf("resident bytes = %v, want %v", got, media.GB)
	}
}

// TestSegmentedPoolSnapshotRestore round-trips a multi-shard segmented pool
// with partially resident clips through Snapshot/Restore, including across a
// shard-count change, and checks granularity mismatches are rejected before
// any shard is touched.
func TestSegmentedPoolSnapshotRestore(t *testing.T) {
	repo := media.PaperRepository()
	capacity := repo.CacheSizeForRatio(testRatio)
	build := func(shards int, segSize media.Bytes) *Pool {
		cfg := Config{
			Policy: "greedydual", Repo: repo, Capacity: capacity,
			Seed: 7, Shards: shards, SegmentSize: segSize,
		}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	pool := build(4, testSegSize)
	for _, r := range rangeTrace(2000, 5) {
		if _, err := pool.RequestRange(r.id, r.start, r.length); err != nil {
			t.Fatal(err)
		}
	}
	snap := pool.Snapshot()
	if snap.SegmentSize != testSegSize {
		t.Fatalf("snapshot segment size = %v", snap.SegmentSize)
	}
	if len(snap.Partial) == 0 {
		t.Fatal("trace left no partially resident clips; nothing exercised")
	}

	for _, shards := range []int{4, 2} {
		fresh := build(shards, testSegSize)
		if err := fresh.Restore(snap); err != nil {
			t.Fatalf("restore into %d shards: %v", shards, err)
		}
		if fresh.UsedBytes() != pool.UsedBytes() {
			t.Errorf("%d shards: used %v, want %v", shards, fresh.UsedBytes(), pool.UsedBytes())
		}
		if fresh.ResidentSegments() != pool.ResidentSegments() {
			t.Errorf("%d shards: resident segments %d, want %d",
				shards, fresh.ResidentSegments(), pool.ResidentSegments())
		}
		for _, cs := range snap.Partial {
			a, b := fresh.ResidentExtentsOf(cs.ID), pool.ResidentExtentsOf(cs.ID)
			if len(a) != len(b) {
				t.Fatalf("%d shards: clip %d extents %v, want %v", shards, cs.ID, a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%d shards: clip %d extents %v, want %v", shards, cs.ID, a, b)
				}
			}
		}
	}

	// Granularity mismatches fail up front.
	if err := build(2, 0).Restore(snap); err == nil {
		t.Error("segmented snapshot restored into unsegmented pool")
	}
	if err := build(2, testSegSize/2).Restore(snap); err == nil {
		t.Error("snapshot restored across a segment-size change")
	}

	// A pre-segment whole-clip snapshot is adopted into a segmented pool.
	legacy := build(2, 0)
	for _, id := range testTrace(500, 3) {
		if _, err := legacy.Request(id); err != nil {
			t.Fatal(err)
		}
	}
	lsnap := legacy.Snapshot()
	adopted := build(2, testSegSize)
	if err := adopted.Restore(lsnap); err != nil {
		t.Fatalf("adopting whole-clip snapshot: %v", err)
	}
	if adopted.UsedBytes() != legacy.UsedBytes() {
		t.Errorf("adopted used %v, want %v", adopted.UsedBytes(), legacy.UsedBytes())
	}
	for _, id := range lsnap.ResidentIDs {
		if got := adopted.ResidentBytes(id); got != repo.Clip(id).Size {
			t.Errorf("adopted clip %d resident bytes %v, want full size", id, got)
		}
	}
}

// TestSegmentedPoolWholeClipFetchFallback checks a segmented pool built with
// only the whole-clip Fetch hook still fetches per missing segment through
// the adapter (one link consultation per segment), for the ranged form and
// for a whole-clip Request, and that every consultation is one logical
// fetch.
func TestSegmentedPoolWholeClipFetchFallback(t *testing.T) {
	repo := media.PaperRepository()
	for _, tc := range []struct {
		name string
		segs uint64 // cold segments the request touches
		call func(*Pool) (core.Outcome, error)
	}{
		{"RequestRange", 4, func(p *Pool) (core.Outcome, error) {
			res, err := p.RequestRange(3, 0, media.GB) // 1.8 GB clip: 4 cold segments
			return res.Outcome, err
		}},
		{"Request", 8, func(p *Pool) (core.Outcome, error) {
			return p.Request(3) // the whole 1.8 GB clip: 8 cold segments
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Uint64
			fetch := func(media.Clip, vtime.Time) error { calls.Add(1); return nil }
			pool, err := New(Config{
				Policy: "greedydual", Repo: repo, Capacity: repo.TotalSize(),
				Seed: 7, Shards: 2, SegmentSize: testSegSize, Fetch: fetch,
			})
			if err != nil {
				t.Fatal(err)
			}
			out, err := tc.call(pool)
			if err != nil {
				t.Fatal(err)
			}
			if out != core.MissCached {
				t.Fatalf("outcome = %v", out)
			}
			if calls.Load() != tc.segs {
				t.Errorf("link consulted %d times, want %d (one per segment)", calls.Load(), tc.segs)
			}
			if got := pool.Fetches(); got != tc.segs {
				t.Errorf("logical fetches = %d, want %d", got, tc.segs)
			}
		})
	}
}

// TestSegmentedWholeClipFetchOutsideLock pins the segmented whole-clip miss
// of a pool wired with only SegmentFetch (loadgen's -ranges wiring): its
// segment fetches run outside the shard lock, so a request for another clip
// on the same single shard completes while they are parked, and concurrent
// whole-clip misses share one flight per segment.
func TestSegmentedWholeClipFetchOutsideLock(t *testing.T) {
	repo := media.PaperRepository()
	const G = 4
	clip := repo.Clip(3) // 1.8 GB: 8 segments of 256 MB
	segs := int((clip.Size + testSegSize - 1) / testSegSize)

	gate := make(chan struct{})
	var perSeg [16]atomic.Uint64
	fetch := func(c media.Clip, seg int32, _ vtime.Time) error {
		if c.ID == clip.ID {
			perSeg[seg].Add(1)
			<-gate
		}
		return nil
	}
	pool, err := New(Config{
		Policy: "greedydual", Repo: repo, Capacity: repo.CacheSizeForRatio(0.5),
		Seed: 7, Shards: 1, SegmentSize: testSegSize, SegmentFetch: fetch,
	})
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg     sync.WaitGroup
		misses atomic.Uint64
	)
	wg.Add(G)
	for g := 0; g < G; g++ {
		go func() {
			defer wg.Done()
			out, err := pool.Request(clip.ID)
			switch {
			case err != nil:
				t.Errorf("Request(%d): %v", clip.ID, err)
			case out == core.MissCached:
				misses.Add(1)
			case out != core.Hit:
				t.Errorf("Request(%d) = %v, want a miss or a hit", clip.ID, out)
			}
		}()
	}
	// Every segment's leader is parked on the gate once the other G-1
	// requests have joined each of the clip's flights.
	wantJoins := uint64((G - 1) * segs)
	deadline := time.Now().Add(5 * time.Second)
	for pool.Coalesced() < wantJoins {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("coalesced %d after 5s, want %d", pool.Coalesced(), wantJoins)
		}
		time.Sleep(time.Millisecond)
	}

	other := make(chan error, 1)
	go func() {
		_, err := pool.RequestRange(1, 0, media.MB)
		other <- err
	}()
	select {
	case err := <-other:
		if err != nil {
			t.Errorf("RequestRange(1): %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("a request for another clip stayed blocked behind parked segment fetches")
	}
	close(gate)
	wg.Wait()

	// The first request to apply caches the clip; the rest find it resident.
	if got := misses.Load(); got != 1 {
		t.Errorf("%d of %d requests missed, want 1", got, G)
	}
	for seg := 0; seg < segs; seg++ {
		if n := perSeg[seg].Load(); n != 1 {
			t.Errorf("segment %d fetched %d times, want 1", seg, n)
		}
	}
	if got := pool.Fetches(); got != uint64(segs+1) {
		t.Errorf("logical fetches = %d, want %d (%d segments + the other clip's)", got, segs+1, segs)
	}
	if got := pool.ResidentBytes(clip.ID); got != clip.Size {
		t.Errorf("resident bytes = %v, want %v", got, clip.Size)
	}
}
