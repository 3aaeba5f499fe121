package main

import (
	"runtime"
	"slices"
	"time"

	"mediacache/internal/core"
	"mediacache/internal/media"
	_ "mediacache/internal/policy/all" // the registry names cacheserver -policy accepts
	"mediacache/internal/policy/registry"
	"mediacache/internal/shard"
	"mediacache/internal/sim"
	"mediacache/internal/vtime"
	"mediacache/internal/workload"
	"mediacache/internal/zipf"
)

// evict_heavy runs the paper's three techniques, each built by registry
// name, on a 20,004-clip repository at a 5% cache, where about half the
// requests evict.
var evictPolicies = []struct{ spec, name string }{
	{"dynsimple:2", "dynsimple"},
	{"igd:2", "igd"},
	{"lrusk:2", "lrusk"},
}

const (
	evictClips = 20_004
	evictRatio = 0.05
	// evictWarm references fill the cache before timing starts; the
	// evictTimed references after them are timed. Every replay of the
	// trace starts from an empty cache, so its counts repeat exactly.
	evictWarm  = 5_000
	evictTimed = 60_000
	// evictChunk is the sub-window of a replay: rates, CPU per request and
	// latency percentiles are taken per chunk of this many timed calls and
	// reported as their median over every chunk of a run.
	evictChunk = 2_000
	// evictSetupsPerReplay is how many set-ups are timed before each
	// replay. A run makes only a few replays, since igd:2's take seconds.
	evictSetupsPerReplay = 4
)

// evictInput is one set-up: the repository, the popularity vector
// cacheserver hands to policies, and the seeded trace.
type evictInput struct {
	repo  *media.Repository
	pmf   []float64
	trace []media.ClipID // evictWarm warm-up references, then evictTimed timed ones
	genNS float64        // trace generation cost per reference
}

func buildEvictInput(seed uint64) (evictInput, error) {
	repo, err := media.VariableRepository(evictClips)
	if err != nil {
		return evictInput{}, err
	}
	dist, err := zipf.New(repo.N(), zipf.DefaultMean)
	if err != nil {
		return evictInput{}, err
	}
	t0 := time.Now()
	gen, err := workload.NewGenerator(dist, seed)
	if err != nil {
		return evictInput{}, err
	}
	trace := gen.Generate(make([]media.ClipID, 0, evictWarm+evictTimed), evictWarm+evictTimed)
	genNS := float64(time.Since(t0).Nanoseconds()) / float64(len(trace))
	return evictInput{repo: repo, pmf: dist.PMF(), trace: trace, genNS: genNS}, nil
}

// newPool builds a one-shard pool with no fetch hook, its policy resolved
// by registry name with the same arguments cacheserver passes.
func (in evictInput) newPool(spec string) (*shard.Pool, error) {
	return shard.New(shard.Config{
		Policy:   spec,
		Repo:     in.repo,
		PMF:      in.pmf,
		Capacity: in.repo.CacheSizeForRatio(evictRatio),
		Seed:     sim.DefaultSeed,
		Shards:   1,
	})
}

// newEngine builds the bare engine a one-shard pool wraps, with the policy
// behind the timing decorator when rec is set.
func (in evictInput) newEngine(spec string, rec *recorder) (*core.Cache, error) {
	pol, err := registry.Build(spec, in.repo, in.pmf, sim.DefaultSeed)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		pol = &timedPolicy{Policy: pol, rec: rec}
	}
	return core.New(in.repo, in.repo.CacheSizeForRatio(evictRatio), pol)
}

// counts are the exact outcome counts of the timed part of one replay.
type counts struct {
	Requests, Hits, Evictions, VictimCalls uint64
	BytesReferenced, BytesHit              int64
}

func (c counts) misses() uint64 { return c.Requests - c.Hits }

// replayed is what one replay measured.
type replayed struct {
	counts counts
	wall   time.Duration // timed part, wall clock (chunk bookkeeping excluded)
	calls  time.Duration // timed part, sum of the per-call latencies
	failed uint64
}

// replayer drives the trace through one engine front: Pool.Request or
// Cache.Request, with the ledger it keeps.
type replayer struct {
	request func(media.ClipID) (core.Outcome, error)
	ledger  func() core.Stats
	span    string // span name around each timed call when traced
}

// chunk is what one evictChunk of timed calls measured.
type chunk struct {
	rate, cpuPerReq, p50, p99 float64
}

// replay drives the warm-up untimed, then times every call of the rest of
// the trace, and checks the ledger's identities over the whole replay.
func (r replayer) replay(res *result, who string, trace []media.ClipID, chunks *[]chunk, rec *recorder) replayed {
	var missCached, failed uint64
	book := func(out core.Outcome, err error) {
		switch {
		case err != nil:
			failed++
		case out == core.MissCached:
			missCached++
		}
	}
	for _, id := range trace[:evictWarm] {
		book(r.request(id))
	}
	before := r.ledger()
	var out replayed
	timed := trace[evictWarm:]
	lat := make([]time.Duration, 0, evictChunk)
	for c0 := 0; c0 < len(timed); c0 += evictChunk {
		part := timed[c0:min(c0+evictChunk, len(timed))]
		lat = lat[:0]
		cpu0 := selfCPU()
		start := time.Now()
		for _, id := range part {
			if rec != nil {
				rec.begin(r.span)
			}
			t0 := time.Now()
			o, err := r.request(id)
			d := time.Since(t0)
			if rec != nil {
				rec.end()
			}
			lat = append(lat, d)
			book(o, err)
		}
		wall := time.Since(start)
		cpu := selfCPU() - cpu0
		out.wall += wall
		for _, d := range lat {
			out.calls += d
		}
		if chunks != nil {
			*chunks = append(*chunks, chunk{
				rate:      float64(len(part)) / wall.Seconds(),
				cpuPerReq: micros(cpu) / float64(len(part)),
				p50:       micros(percentile(lat, 0.50)),
				p99:       micros(percentile(lat, 0.99)),
			})
		}
	}
	after := r.ledger()
	out.failed = failed
	out.counts = counts{
		Requests:        after.Requests - before.Requests,
		Hits:            after.Hits - before.Hits,
		Evictions:       after.Evictions - before.Evictions,
		VictimCalls:     after.VictimCalls - before.VictimCalls,
		BytesReferenced: int64(after.BytesReferenced - before.BytesReferenced),
		BytesHit:        int64(after.BytesHit - before.BytesHit),
	}
	if after.Requests != after.Hits+missCached+after.Bypassed+after.FetchFailed {
		res.fail("%s: Requests %d != Hits %d + MissCached %d + Bypassed %d + FetchFailed %d",
			who, after.Requests, after.Hits, missCached, after.Bypassed, after.FetchFailed)
	}
	if after.BytesHit+after.BytesFetched+after.BytesFailed != after.BytesReferenced {
		res.fail("%s: BytesHit %d + BytesFetched %d + BytesFailed %d != BytesReferenced %d",
			who, after.BytesHit, after.BytesFetched, after.BytesFailed, after.BytesReferenced)
	}
	if failed > 0 {
		res.fail("%s: %d requests failed", who, failed)
	}
	return out
}

func poolReplayer(p *shard.Pool) replayer {
	return replayer{request: p.Request, ledger: p.Stats, span: "shard.Pool.Request"}
}

func engineReplayer(c *core.Cache) replayer {
	return replayer{request: c.Request, ledger: c.Stats, span: "core.Cache.Request"}
}

// timedPolicy is a forwarding decorator that records a span around each
// Record and Victims call of the policy it wraps. It forwards every
// optional interface the engine type-asserts (core.Binder,
// core.SegmentAware), so the engine drives the wrapped policy exactly as
// it would drive it bare; evict_heavy checks that by comparing counts.
type timedPolicy struct {
	core.Policy
	rec *recorder
}

// Record and Victims are timed only inside an open span, that is within a
// timed Cache.Request; warm-up calls pass straight through.
func (p *timedPolicy) Record(clip media.Clip, now vtime.Time, hit bool) {
	if !p.rec.open() {
		p.Policy.Record(clip, now, hit)
		return
	}
	p.rec.begin("policy.Record")
	p.Policy.Record(clip, now, hit)
	p.rec.end()
}

func (p *timedPolicy) Victims(incoming media.Clip, view core.ResidentView, need media.Bytes, now vtime.Time) []media.ClipID {
	if !p.rec.open() {
		return p.Policy.Victims(incoming, view, need, now)
	}
	p.rec.begin("policy.Victims")
	v := p.Policy.Victims(incoming, view, need, now)
	p.rec.end()
	return v
}

func (p *timedPolicy) Bind(view core.ResidentView) {
	if b, ok := p.Policy.(core.Binder); ok {
		b.Bind(view)
	}
}

func (p *timedPolicy) OnResidentBytes(clip media.Clip, resident media.Bytes, now vtime.Time) {
	if s, ok := p.Policy.(core.SegmentAware); ok {
		s.OnResidentBytes(clip, resident, now)
	}
}

// evictSetup builds everything a run needs before the first request —
// repository, trace and one pool per policy — and returns the input with
// the time that took.
func evictSetup(seed uint64) (evictInput, float64, error) {
	start := time.Now()
	in, err := buildEvictInput(seed)
	if err != nil {
		return in, 0, err
	}
	for _, p := range evictPolicies {
		if _, err := in.newPool(p.spec); err != nil {
			return in, 0, err
		}
	}
	took := time.Since(start).Seconds()
	runtime.GC() // this set-up's garbage, as after each replay
	return in, took, nil
}

// runEvictHeavy replays one seeded trace through a one-shard pool per
// policy, in-process and on one goroutine.
func runEvictHeavy(o options) (*result, error) {
	if o.trace {
		return runEvictTraced(o)
	}
	in, took, err := evictSetup(o.seed)
	if err != nil {
		return nil, err
	}
	setups := []float64{took}
	res := newResult()
	// Rounds replay the trace once per policy, in turn, until the replays
	// have used the window, so every policy samples the whole run's host
	// conditions. Every replay must reproduce the policy's first counts
	// exactly. Before each replay the set-up is timed again, several
	// times, so that setup_s, their median, samples the host across the
	// run rather than at its start; each must build the same trace.
	window := time.Duration(o.seconds * float64(time.Second))
	chunks := make([][]chunk, len(evictPolicies))
	first := make([]counts, len(evictPolicies))
	var busy time.Duration // time spent replaying
	rounds := 0
	for rounds == 0 || busy+busy/time.Duration(rounds) <= window {
		for i, p := range evictPolicies {
			for range evictSetupsPerReplay {
				again, took, err := evictSetup(o.seed)
				if err != nil {
					return nil, err
				}
				setups = append(setups, took)
				if !slices.Equal(again.trace, in.trace) {
					res.fail("set-up %d generated another trace from seed %d", len(setups)-1, o.seed)
				}
			}
			start := time.Now()
			pool, err := in.newPool(p.spec)
			if err != nil {
				return nil, err
			}
			r := poolReplayer(pool).replay(res, p.spec+" pool", in.trace, &chunks[i], nil)
			if rounds == 0 {
				first[i] = r.counts
			} else if r.counts != first[i] {
				res.fail("%s: replay %d counts %+v differ from replay 0 %+v", p.spec, rounds, r.counts, first[i])
			}
			res.attempted += r.counts.Requests
			res.failed += r.failed
			// Collect the replay's garbage now, so that peak RSS does not
			// depend on where the collector happened to run.
			runtime.GC()
			busy += time.Since(start)
		}
		rounds++
	}
	var rps, cpuPerReq, p50s, p99s []float64
	var refs, hits, bytesRef, bytesHit uint64
	for i, p := range evictPolicies {
		med := func(f func(chunk) float64) float64 {
			xs := make([]float64, len(chunks[i]))
			for j, c := range chunks[i] {
				xs[j] = f(c)
			}
			return median(xs)
		}
		rps = append(rps, med(func(c chunk) float64 { return c.rate }))
		cpuPerReq = append(cpuPerReq, med(func(c chunk) float64 { return c.cpuPerReq }))
		p50s = append(p50s, med(func(c chunk) float64 { return c.p50 }))
		p99s = append(p99s, med(func(c chunk) float64 { return c.p99 }))
		refs += first[i].Requests
		hits += first[i].Hits
		bytesRef += uint64(first[i].BytesReferenced)
		bytesHit += uint64(first[i].BytesHit)
		res.details[p.name] = map[string]any{
			"counts": first[i], "chunks": len(chunks[i]),
			"throughput_rps": rps[i], "cpu_us_per_req": cpuPerReq[i],
			"latency_p50_us": p50s[i], "latency_p99_us": p99s[i],
		}
	}
	res.details["rounds"] = rounds
	res.details["latency_samples"] = rounds * len(evictPolicies) * evictTimed
	rss, err := peakRSS("self")
	if err != nil {
		return nil, err
	}
	res.set("throughput_rps", geomean(rps), "1/s")
	res.set("latency_p50_us", geomean(p50s), "us")
	res.details["latency_p99_us"] = geomean(p99s)
	res.set("cpu_us_per_req", geomean(cpuPerReq), "us")
	res.set("hit_rate", ratio(float64(hits), float64(refs)), "ratio")
	res.set("byte_hit_rate", ratio(float64(bytesHit), float64(bytesRef)), "ratio")
	res.set("success_rate", 1-ratio(float64(res.failed), float64(res.attempted)), "ratio")
	res.set("peak_rss_mb", rss, "MiB")
	res.set("setup_s", median(setups), "s")
	res.details["setup_s_each"] = setups
	return res, nil
}

// runEvictTraced measures the per-layer numbers. Per policy it replays the
// trace four times: through the pool untraced (the tracing-overhead
// baseline), through the pool with a span around each Pool.Request,
// through the bare engine with each Cache.Request timed as the pool's calls
// are and heap allocations counted, and through the bare engine with the policy behind
// the timing decorator. All four must produce identical counts.
func runEvictTraced(o options) (*result, error) {
	in, _, err := evictSetup(o.seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	epoch := time.Now()
	var recs []*recorder
	var overhead, poolNS, engineNS, victimNS, requestNS []float64
	var misses, victimCalls, evictions, allocs, fastHits, flushes, hits float64
	for _, p := range evictPolicies {
		pool, err := in.newPool(p.spec)
		if err != nil {
			return nil, err
		}
		base := poolReplayer(pool).replay(res, p.spec+" pool", in.trace, nil, nil)

		poolRec := newRecorder(epoch)
		pool, err = in.newPool(p.spec)
		if err != nil {
			return nil, err
		}
		traced := poolReplayer(pool).replay(res, p.spec+" traced pool", in.trace, nil, poolRec)
		fastHits += float64(pool.FastPathHits())
		flushes += float64(pool.TouchFlushes())
		hits += float64(pool.Stats().Hits)

		engine, err := in.newEngine(p.spec, nil)
		if err != nil {
			return nil, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		bare := engineReplayer(engine).replay(res, p.spec+" engine", in.trace, nil, nil)
		runtime.ReadMemStats(&m1)
		// The warm-up's allocations are in the delta too; they are few and
		// the same on every run, so they only offset the figure.
		allocs += float64(m1.Mallocs - m0.Mallocs)

		decRec := newRecorder(epoch)
		decorated, err := in.newEngine(p.spec, decRec)
		if err != nil {
			return nil, err
		}
		dec := engineReplayer(decorated).replay(res, p.spec+" decorated engine", in.trace, nil, decRec)
		recs = append(recs, poolRec, decRec)

		for i, c := range []counts{traced.counts, bare.counts, dec.counts} {
			if c != base.counts {
				res.fail("%s: counts of run %d (%+v) differ from the untraced pool's (%+v)",
					p.spec, i+1, c, base.counts)
			}
		}
		res.attempted += 4 * base.counts.Requests
		overhead = append(overhead, base.wall.Seconds()/traced.wall.Seconds())
		poolTotals := mergeTotals(poolRec)
		decTotals := mergeTotals(decRec)
		poolNS = append(poolNS, poolTotals["shard.Pool.Request"].meanNS())
		engineNS = append(engineNS, float64(bare.calls.Nanoseconds())/float64(bare.counts.Requests))
		victimNS = append(victimNS, float64(decTotals["policy.Victims"].totalNS))
		requestNS = append(requestNS, float64(decTotals["core.Cache.Request"].totalNS))
		res.set("policy."+p.name+".victims_us", decTotals["policy.Victims"].meanNS()/1e3, "us")
		res.set("policy."+p.name+".record_ns", decTotals["policy.Record"].meanNS(), "ns")
		misses += float64(base.counts.misses())
		victimCalls += float64(base.counts.VictimCalls)
		evictions += float64(base.counts.Evictions)
		res.details[p.name] = map[string]any{"counts": base.counts}
	}
	null := nullCallUS()

	res.set("shard.request_us", mean(poolNS)/1e3, "us")
	res.set("shard.fastpath_ratio", ratio(fastHits, hits), "ratio")
	res.set("shard.touch_flushes_per_khit", ratio(1000*flushes, hits), "count/khit")
	res.set("core.request_ns", mean(engineNS), "ns")
	res.set("core.victim_calls_per_miss", ratio(victimCalls, misses), "count/miss")
	res.set("core.evictions_per_miss", ratio(evictions, misses), "count/miss")
	res.set("core.allocs_per_req", ratio(allocs, float64(len(evictPolicies))*float64(len(in.trace))), "allocs/req")
	res.set("policy.victims_share", ratio(sum(victimNS), sum(requestNS)), "ratio")
	res.set("workload.gen_ns_per_req", in.genNS, "ns/req")
	res.set("bench.null_call_us", null, "us")
	res.set("bench.trace_overhead", geomean(overhead), "ratio")
	res.details["spans_file"] = spanFile(o)
	return res, writeSpans(spanFile(o), recs...)
}

// nullCallUS times an empty call the way each Pool.Request is timed: the
// part of a per-call latency that is the timing itself.
func nullCallUS() float64 {
	lat := make([]time.Duration, 1_000_000)
	f := nop
	for i := range lat {
		t0 := time.Now()
		f()
		lat[i] = time.Since(t0)
	}
	return micros(percentile(lat, 0.5))
}

//go:noinline
func nop() {}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
