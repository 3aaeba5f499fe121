package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"mediacache/internal/api"
	"mediacache/internal/media"
	"mediacache/internal/randutil"
	"mediacache/internal/sim"
	"mediacache/internal/workload"
	"mediacache/internal/zipf"
)

// Load model and sizes shared by the HTTP workloads.
const (
	// setupReps is how many set-ups an end-to-end run times; setup_s is
	// their median. About half are made before the warm-up and the rest
	// after the timed window, setupGap apart, so that the median samples
	// the host at several moments of the run rather than in one burst.
	setupReps = 21
	setupGap  = 100 * time.Millisecond
	// maxOps caps the generated op sequence; a run that outlasts it wraps.
	maxOps = 600_000
	// opsPerSecond sizes the sequence to a run: comfortably above the
	// closed-loop call rate this kind of host reaches.
	opsPerSecond = 40_000
	// nullWindow is how long the traced run drives the null target.
	nullWindow = 2 * time.Second
)

// workers is the closed-loop concurrency: one caller per CPU, so the
// benchmark never runs more load goroutines or connections than the host
// has CPUs.
func workers() int { return runtime.NumCPU() }

// paperZipf returns the paper's 576-clip repository and its Zipf
// popularity (θ = 0.27).
func paperZipf() (*media.Repository, *zipf.Distribution, error) {
	repo := media.PaperRepository()
	dist, err := zipf.New(repo.N(), zipf.DefaultMean)
	return repo, dist, err
}

// zipfOps draws n whole-clip GETs from the Zipf generator.
func zipfOps(dist *zipf.Distribution, seed uint64, n int) ([]op, error) {
	gen, err := workload.NewGenerator(dist, seed)
	if err != nil {
		return nil, err
	}
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opGet, clip: gen.Next()}
	}
	return ops, nil
}

// mixed traffic shape: each round is mixedRangeGets prefix-biased Range
// GETs and one POST /v1/batch of mixedBatch ranged items, followed by a
// DELETE for every clip the churn stream perishes while the round's
// references pass. The two staged paths carry equal shares of the
// references. No measurement or cited source gives a GET:batch ratio; the
// equal split is chosen so that neither path dominates the figures (see
// README.md, "Workloads").
const (
	mixedRangeGets = 16
	mixedBatch     = 16
	mixedRefs      = mixedRangeGets + mixedBatch
)

// mixedRegime is the churn regime of serve_mixed: the Churn experiment's
// mid-ttl regime, whose perish events become DELETEs and whose TTL, equal
// to the clips' life, is the server's -ttl.
func mixedRegime() (sim.ChurnSetting, error) {
	for _, s := range sim.ChurnSettings {
		if s.Name == "mid-ttl" {
			return s, nil
		}
	}
	return sim.ChurnSetting{}, errors.New("sim.ChurnSettings has no mid-ttl regime")
}

// mixedOps generates rounds of the serve_mixed traffic and returns the ops,
// the items of their batches and the clip references they carry.
func mixedOps(repo *media.Repository, dist *zipf.Distribution, regime workload.ChurnSpec, seed uint64, rounds int) ([]op, [][mixedBatch]batchItem, int, error) {
	rg, err := workload.NewRangeGenerator(repo, dist, seed, workload.DefaultRangeConfig())
	if err != nil {
		return nil, nil, 0, err
	}
	regime.Horizon = rounds*mixedRefs + 1
	churn, err := workload.NewChurn(repo.N(), zipf.DefaultMean, regime,
		randutil.NewSource(seed).Split("churn").Uint64())
	if err != nil {
		return nil, nil, 0, err
	}
	ops := make([]op, 0, rounds*(mixedRangeGets+2))
	batches := make([][mixedBatch]batchItem, rounds)
	for r := 0; r < rounds; r++ {
		for i := 0; i < mixedRangeGets; i++ {
			rr := rg.Next()
			ops = append(ops, op{kind: opRange, clip: rr.Clip, start: rr.Start, length: rr.Length})
		}
		for i := range batches[r] {
			rr := rg.Next()
			batches[r][i] = batchItem{clip: rr.Clip, start: rr.Start, length: rr.Length}
		}
		ops = append(ops, op{kind: opBatch, batch: int32(r)})
		for refs := 0; refs < mixedRefs; {
			ev, ok := churn.Next()
			if !ok {
				break
			}
			switch ev.Kind {
			case workload.ChurnRequest:
				refs++
			case workload.ChurnPerish:
				ops = append(ops, op{kind: opDelete, clip: ev.Clip})
			}
		}
	}
	return ops, batches, rounds * mixedRefs, nil
}

// warmStep is one untimed warm-up phase: count ops driven at node.
type warmStep struct {
	node  int
	ops   []op
	count int64
}

// httpWorkload describes one HTTP workload run.
type httpWorkload struct {
	repo      *media.Repository
	specs     func(rep int) ([]nodeSpec, error) // servers of one set-up
	clustered bool
	ops       []op // the driven node's sequence; its warm-up takes a prefix
	batches   [][mixedBatch]batchItem
	warm      []warmStep
	driven    int                  // index of the node the timed window drives
	genNS     float64              // input generation cost per clip reference
	reqlog    func(rep int) string // request-log path of a set-up; nil when the server writes none
}

// reqlogPath returns set-up rep's request-log path, or "" for none.
func (w *httpWorkload) reqlogPath(rep int) string {
	if w.reqlog == nil {
		return ""
	}
	return w.reqlog(rep)
}

// runServeZipf: whole-clip GETs through cacheclient at one cacheserver with
// default settings.
func runServeZipf(o options) (*result, error) {
	repo, dist, err := paperZipf()
	if err != nil {
		return nil, err
	}
	n := opCount(o)
	t0 := time.Now()
	ops, err := zipfOps(dist, o.seed, n)
	if err != nil {
		return nil, err
	}
	w := httpWorkload{
		repo:  repo,
		specs: standalone(nil),
		ops:   ops,
		warm:  []warmStep{{node: 0, ops: ops, count: 5_000}},
		genNS: float64(time.Since(t0).Nanoseconds()) / float64(n),
	}
	return w.run(o)
}

// runServeMixed: Range GETs, ranged batches and churn DELETEs at a
// segmented, prefix-pinning, TTL-expiring server that writes a request log.
func runServeMixed(o options) (*result, error) {
	repo, dist, err := paperZipf()
	if err != nil {
		return nil, err
	}
	regime, err := mixedRegime()
	if err != nil {
		return nil, err
	}
	rounds := opCount(o) / mixedRefs
	t0 := time.Now()
	ops, batches, refs, err := mixedOps(repo, dist, regime.Spec, o.seed, rounds)
	if err != nil {
		return nil, err
	}
	reqlog := func(rep int) string {
		return filepath.Join(o.workdir, fmt.Sprintf("reqlog-%s-%d-%d.ndjson", o.workload, o.seed, rep))
	}
	w := httpWorkload{
		repo: repo,
		specs: func(rep int) ([]nodeSpec, error) {
			return standalone([]string{"-segment", "268435456", "-prefix", "2", "-ttl", strconv.FormatInt(int64(regime.TTL), 10),
				"-reqlog", reqlog(rep)})(rep)
		},
		ops:     ops,
		batches: batches,
		warm:    []warmStep{{node: 0, ops: ops, count: 3_000}},
		genNS:   float64(time.Since(t0).Nanoseconds()) / float64(refs),
		reqlog:  reqlog,
	}
	return w.run(o)
}

// runClusterHop: two clustered nodes; B is warmed directly, then the timed
// window drives only A, whose local misses become peer consults B answers.
// B caches half the repository so that A's misses often find it there.
func runClusterHop(o options) (*result, error) {
	repo, dist, err := paperZipf()
	if err != nil {
		return nil, err
	}
	n := opCount(o)
	t0 := time.Now()
	ops, err := zipfOps(dist, o.seed, n)
	if err != nil {
		return nil, err
	}
	const warmB = 10_000
	opsB, err := zipfOps(dist, randutil.NewSource(o.seed).Split("warm-b").Uint64(), warmB)
	if err != nil {
		return nil, err
	}
	genNS := float64(time.Since(t0).Nanoseconds()) / float64(n+warmB)
	w := httpWorkload{
		repo: repo,
		specs: func(int) ([]nodeSpec, error) {
			ports, err := freePorts(2)
			if err != nil {
				return nil, err
			}
			pa, pb := ports[0], ports[1]
			peer := func(id string, port int) string { return id + "=http://127.0.0.1:" + strconv.Itoa(port) }
			return []nodeSpec{
				{name: "a", port: pa, args: []string{"-node-id", "a", "-peers", peer("b", pb), "-replicas", "2"}},
				{name: "b", port: pb, args: []string{"-node-id", "b", "-peers", peer("a", pa), "-replicas", "2", "-ratio", "0.5"}},
			}, nil
		},
		clustered: true,
		ops:       ops,
		warm:      []warmStep{{node: 1, ops: opsB, count: warmB}, {node: 0, ops: ops, count: 3_000}},
		genNS:     genNS,
	}
	return w.run(o)
}

// opCount sizes a run's op sequence.
func opCount(o options) int {
	return min(maxOps, int(math.Ceil(o.seconds*opsPerSecond))+20_000)
}

// standalone describes one server on a fresh port with extra flags.
func standalone(args []string) func(int) ([]nodeSpec, error) {
	return func(int) ([]nodeSpec, error) {
		ports, err := freePorts(1)
		if err != nil {
			return nil, err
		}
		return []nodeSpec{{name: "a", port: ports[0], args: args}}, nil
	}
}

// session holds the live servers of a run and what the benchmark booked at
// each of them.
type session struct {
	w       *httpWorkload
	nodes   []*node
	rep     int // set-up number of the live servers, which names their request log
	tallies []tally
	cpuErr  error // a failed read of a server's CPU time
}

// timeSetups spawns and stops the servers n times, setupGap apart, and
// returns each set-up's duration. first numbers the set-ups' request logs.
func (w *httpWorkload) timeSetups(o options, first, n int) ([]float64, error) {
	var took []float64
	for rep := first; rep < first+n; rep++ {
		time.Sleep(setupGap)
		ns, d, err := w.spawn(o, rep)
		if err != nil {
			return nil, err
		}
		took = append(took, d.Seconds())
		stopNodes(ns)
		if p := w.reqlogPath(rep); p != "" {
			_ = os.Remove(p) // a discarded set-up's log; a leftover is harmless
		}
	}
	return took, nil
}

// start spawns the servers the run drives and returns the set-up times
// measured so far: in an end-to-end run, setupReps/2 set-ups that are
// stopped again, then the kept one.
func (w *httpWorkload) start(o options) (*session, []float64, error) {
	var setups []float64
	if !o.trace {
		var err error
		if setups, err = w.timeSetups(o, 0, setupReps/2); err != nil {
			return nil, nil, err
		}
		time.Sleep(setupGap)
	}
	rep := len(setups)
	nodes, took, err := w.spawn(o, rep)
	if err != nil {
		return nil, nil, err
	}
	setups = append(setups, took.Seconds())
	s := &session{w: w, nodes: nodes, rep: rep, tallies: make([]tally, len(nodes))}
	return s, setups, nil
}

// spawn starts one set of servers. A port picked free can be taken by
// another process before the server binds it, so a failed start is retried
// on fresh ports.
func (w *httpWorkload) spawn(o options, rep int) ([]*node, time.Duration, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var specs []nodeSpec
		if specs, err = w.specs(rep); err != nil {
			return nil, 0, err
		}
		var ns []*node
		var took time.Duration
		if ns, took, err = startNodes(o.server, specs, workers()); err == nil {
			return ns, took, nil
		}
	}
	return nil, 0, err
}

// drive runs one phase at node i and books its tally.
func (s *session) drive(p phase, i int) phaseResult {
	p.tgt = target{node: s.nodes[i], repo: s.w.repo}
	p.batches = s.w.batches
	p.workers = workers()
	res := p.run()
	s.tallies[i].add(&res.tally)
	return res
}

// warmUp runs every untimed warm-up step; the driven node's step advances
// the cursor the timed window continues from.
func (s *session) warmUp(cursor *atomic.Int64) error {
	for _, st := range s.w.warm {
		c := new(atomic.Int64)
		if st.node == s.w.driven {
			c = cursor
		}
		res := s.drive(phase{ops: st.ops, cursor: c, until: st.count}, st.node)
		if res.tally.failed > 0 {
			return fmt.Errorf("warm-up at %s: %d of %d calls failed", s.nodes[st.node].name, res.tally.failed, res.tally.calls)
		}
		if s.w.clustered && st.node != s.w.driven {
			if err := s.awaitDigest(); err != nil {
				return err
			}
		}
	}
	return nil
}

// awaitDigest waits until the driven node has refreshed its peers'
// residency digests after their warm-up, so the window sees warm digests.
func (s *session) awaitDigest() error {
	a := s.nodes[s.w.driven]
	seqs := func() (map[string]uint64, error) {
		st, err := a.client.ClusterStatus(context.Background())
		if err != nil {
			return nil, err
		}
		m := map[string]uint64{}
		for _, p := range st.Peers {
			m[p.ID] = p.DigestSeq
		}
		return m, nil
	}
	before, err := seqs()
	if err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		now, err := seqs()
		if err != nil {
			return err
		}
		fresh := true
		for id, seq := range before {
			fresh = fresh && now[id] > seq
		}
		if fresh {
			return nil
		}
	}
	return errors.New("peer digests were not refreshed within 10s")
}

// serverCPU returns the CPU time every server process has used so far.
func (s *session) serverCPU() time.Duration {
	var total time.Duration
	for _, n := range s.nodes {
		c, err := processCPU(n.pid())
		if err != nil {
			s.cpuErr = err
		}
		total += c
	}
	return total
}

func (s *session) scrapeAll() ([]scrape, error) {
	out := make([]scrape, len(s.nodes))
	for i, n := range s.nodes {
		var err error
		if out[i], err = n.scrape(s.w.clustered); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// check verifies each server's ledger against what the benchmark booked there
// over the whole run, warm-up included:
//
//	Requests == references the benchmark completed
//	Requests == Hits + MissCached + Bypassed + FetchFailed
//	BytesHit + BytesFetched + BytesFailed == BytesReferenced
//
// /v1/stats carries Hits, Bypassed, FetchFailed, BytesFetched, BytesFailed
// and the byte hit rate; MissCached and BytesReferenced come from the
// responses, and BytesHit is the byte hit rate times BytesReferenced.
func (s *session) check(res *result, final []scrape) {
	for i, n := range s.nodes {
		st, t := final[i].stats, s.tallies[i]
		for _, wrong := range t.wrong {
			res.fail("%s: %s", n.name, wrong)
		}
		bypassed := t.outcomes[2] + t.outcomes[3] + t.outcomes[5]
		switch {
		case st.Requests != t.refs:
			res.fail("%s: ledger Requests %d, benchmark completed %d references", n.name, st.Requests, t.refs)
		case st.Hits != t.outcomes[0]:
			res.fail("%s: ledger Hits %d, responses reported %d hits", n.name, st.Hits, t.outcomes[0])
		case st.BypassedMisses != bypassed || st.DegradedMisses != t.outcomes[4]:
			res.fail("%s: ledger bypassed/degraded %d/%d, responses %d/%d", n.name,
				st.BypassedMisses, st.DegradedMisses, bypassed, t.outcomes[4])
		case st.Requests != st.Hits+t.outcomes[1]+st.BypassedMisses+st.DegradedMisses:
			res.fail("%s: Requests %d != Hits %d + MissCached %d + Bypassed %d + FetchFailed %d", n.name,
				st.Requests, st.Hits, t.outcomes[1], st.BypassedMisses, st.DegradedMisses)
		case st.BytesFetched != t.bytesFetch || st.BytesFailed != t.bytesFail:
			res.fail("%s: ledger fetched/failed bytes %d/%d, responses %d/%d", n.name,
				st.BytesFetched, st.BytesFailed, t.bytesFetch, t.bytesFail)
		}
		ref := float64(t.bytesRef)
		if gap := st.ByteHitRate*ref + float64(st.BytesFetched+st.BytesFailed) - ref; math.Abs(gap) > 1e-9*ref+1 {
			res.fail("%s: BytesHit + BytesFetched + BytesFailed misses BytesReferenced %d by %.0f bytes", n.name, t.bytesRef, gap)
		}
		if err := n.client.Healthz(context.Background()); err != nil {
			res.fail("%s: /v1/healthz after the run: %v", n.name, err)
		}
	}
}

// run executes the workload: set-up, warm-up, then either the end-to-end
// window followed by the rest of its timed set-ups, or the traced per-layer
// windows.
func (w *httpWorkload) run(o options) (*result, error) {
	s, setups, err := w.start(o)
	if err != nil {
		return nil, err
	}
	defer stopNodes(s.nodes)
	defer func() {
		if p := w.reqlogPath(s.rep); p != "" {
			_ = os.Remove(p) // only its size is measured; a leftover is harmless
		}
	}()
	cursor := new(atomic.Int64)
	if err := s.warmUp(cursor); err != nil {
		return nil, err
	}
	res := newResult()
	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		return res, s.traced(o, res, cursor, window)
	}
	if err := s.endToEnd(res, cursor, window); err != nil {
		return nil, err
	}
	// The rest of the set-ups, with the window's servers stopped.
	stopNodes(s.nodes)
	more, err := w.timeSetups(o, s.rep+1, setupReps-len(setups))
	if err != nil {
		return nil, err
	}
	setups = append(setups, more...)
	res.set("setup_s", median(setups), "s")
	res.details["setup_s_each"] = setups
	return res, nil
}

// endToEnd measures one window with tracing off and derives the end-to-end
// metrics from it.
func (s *session) endToEnd(res *result, cursor *atomic.Int64, window time.Duration) error {
	before, err := s.scrapeAll()
	if err != nil {
		return err
	}
	win := s.drive(phase{ops: s.w.ops, cursor: cursor, duration: window, timed: true, cpu: s.serverCPU}, s.w.driven)
	if s.cpuErr != nil {
		return s.cpuErr
	}
	after, err := s.scrapeAll()
	if err != nil {
		return err
	}
	rss, err := peakRSSOf(s.nodes)
	if err != nil {
		return err
	}
	s.check(res, after)

	d := s.w.driven
	t := win.tally
	res.attempted, res.failed = t.calls, t.failed
	res.set("throughput_rps", win.medianOf(func(s subWindow) float64 { return float64(s.refs) / s.dur.Seconds() }), "1/s")
	res.set("latency_p50_us", win.medianOf(func(s subWindow) float64 { return micros(percentile(s.lat, 0.50)) }), "us")
	res.set("cpu_us_per_req", win.medianOf(func(s subWindow) float64 { return ratio(micros(s.cpu), float64(s.refs)) }), "us")
	res.set("hit_rate", ratio(float64(after[d].stats.Hits-before[d].stats.Hits),
		float64(after[d].stats.Requests-before[d].stats.Requests)), "ratio")
	res.set("byte_hit_rate", windowByteHitRate(before[d].stats, after[d].stats,
		s.tallies[d].bytesRef-t.bytesRef, s.tallies[d].bytesRef), "ratio")
	res.set("success_rate", 1-ratio(float64(t.failed), float64(t.calls)), "ratio")
	res.set("peak_rss_mb", rss, "MiB")
	res.details["latency_p99_us"] = win.medianOf(func(s subWindow) float64 { return micros(percentile(s.lat, 0.99)) })
	res.details["latency_samples"] = len(win.samples())
	res.details["sub_windows"] = len(win.subs)
	res.details["window_seconds"] = win.elapsed.Seconds()
	res.details["references"] = t.refs
	if t.refs == 0 {
		res.fail("the window completed no clip references")
	}
	return nil
}

// windowByteHitRate is the ledger's byte hit rate over the window: the
// ledger exposes its cumulative byte hit rate, and the benchmark knows the
// cumulative bytes referenced at both scrapes.
func windowByteHitRate(before, after api.Stats, refBefore, refAfter int64) float64 {
	hitBefore := before.ByteHitRate * float64(refBefore)
	hitAfter := after.ByteHitRate * float64(refAfter)
	return ratio(hitAfter-hitBefore, float64(refAfter-refBefore))
}

// traced runs an untraced half window (the baseline of the tracing
// overhead), then a traced half window with spans around every call and
// the servers scraped on both sides, then the null calibration.
func (s *session) traced(o options, res *result, cursor *atomic.Int64, window time.Duration) error {
	half := window / 2
	base := s.drive(phase{ops: s.w.ops, cursor: cursor, duration: half}, s.w.driven)

	d := s.w.driven
	logPath := s.w.reqlogPath(s.rep)
	logBefore := fileSize(logPath)
	before, err := s.scrapeAll()
	if err != nil {
		return err
	}
	epoch := time.Now()
	recs := make([]*recorder, workers())
	for i := range recs {
		recs[i] = newRecorder(epoch)
	}
	win := s.drive(phase{ops: s.w.ops, cursor: cursor, duration: half, timed: true, recs: recs}, d)
	after, err := s.scrapeAll()
	if err != nil {
		return err
	}
	logAfter := fileSize(logPath)
	s.check(res, after)
	stopNodes(s.nodes)

	null, err := nullCalibration(s.w.repo)
	if err != nil {
		return err
	}
	t := win.tally
	res.attempted, res.failed = t.calls, t.failed
	bs, as := before[d].stats, after[d].stats
	bp, ap := before[d].prom, after[d].prom
	requests := float64(as.Requests - bs.Requests)
	hits := float64(as.Hits - bs.Hits)

	clipUS := routeMean(bp, ap, "GET /v1/clips/{id}")
	batchUS := routeMean(bp, ap, "POST /v1/batch")
	deleteUS := routeMean(bp, ap, "DELETE /v1/clips/{id}")
	peerUS := 0.0
	if s.w.clustered {
		peerUS = routeMean(before[1].prom, after[1].prom, "GET /v1/cluster/clips/{id}")
	}
	// The cacheclient metrics cover only the calls made through cacheclient;
	// serve_mixed's Range GETs go through net/http directly. A call's server
	// time is its route's mean: no workload sends both whole-clip and Range
	// GETs, which share a route.
	spans := mergeTotals(recs...)
	var clientCalls, clientNS, serverUS float64
	for _, c := range []struct {
		kind    opKind
		routeUS float64
	}{{opGet, clipUS}, {opBatch, batchUS}, {opDelete, deleteUS}} {
		t := spans[opSpanNames[c.kind]]
		clientCalls += float64(t.count)
		clientNS += float64(t.totalNS)
		serverUS += float64(t.count) * c.routeUS
	}
	callUS := ratio(clientNS/1e3, clientCalls)
	shed := 0.0
	for i := range s.nodes {
		shed += after[i].prom["mediacache_http_shed_total"] - before[i].prom["mediacache_http_shed_total"]
	}
	delta := func(name string) float64 { return ap[name] - bp[name] }

	res.set("cacheserver.clip_route_us", clipUS, "us")
	res.set("cacheserver.batch_route_us", batchUS, "us")
	res.set("cacheserver.delete_route_us", deleteUS, "us")
	res.set("cacheserver.peer_route_us", peerUS, "us")
	res.set("cacheserver.shed_total", shed, "count")
	res.set("cacheserver.reqlog_bytes_per_req", ratio(float64(logAfter-logBefore), requests), "B/req")
	res.set("cacheclient.call_us", callUS, "us")
	res.set("cacheclient.wire_us", callUS-ratio(serverUS, clientCalls), "us")
	res.set("shard.fastpath_ratio", ratio(delta("mediacache_pool_fastpath_hits_total"), hits), "ratio")
	res.set("shard.touch_flushes_per_khit", ratio(1000*delta("mediacache_pool_touch_flushes_total"), hits), "count/khit")
	res.set("shard.items_per_batch", ratio(float64(t.batchItems), delta("mediacache_pool_batches_total")), "items/batch")
	res.set("core.segments_fetched_per_req", ratio(float64(as.SegmentsFetched-bs.SegmentsFetched), requests), "count/req")
	if s.w.clustered {
		setClusterMetrics(res, before[d].cluster, after[d].cluster)
	}
	res.set("workload.gen_ns_per_req", s.w.genNS, "ns/req")
	res.set("bench.null_call_us", null, "us")
	res.set("bench.trace_overhead", ratio(float64(t.refs)/win.elapsed.Seconds(), float64(base.tally.refs)/base.elapsed.Seconds()), "ratio")
	res.details["traced_calls"] = t.calls
	res.details["cacheclient_calls"] = clientCalls
	res.details["spans_file"] = spanFile(o)
	return writeSpans(spanFile(o), recs...)
}

func spanFile(o options) string {
	return filepath.Join(o.workdir, "spans-"+o.workload+".jsonl")
}

// setClusterMetrics derives the cooperative-tier metrics from the driven
// node's /v1/cluster counters, per peer lookup.
func setClusterMetrics(res *result, b, a api.ClusterStatus) {
	hits := float64(a.PeerHits - b.PeerHits)
	lookups := hits + float64(a.PeerMisses-b.PeerMisses)
	res.set("cluster.peer_hit_ratio", ratio(hits, lookups), "ratio")
	res.set("cluster.digest_skip_ratio", ratio(float64(a.DigestSkips-b.DigestSkips), lookups), "ratio")
	res.set("cluster.hedges_per_consult", ratio(float64(a.Hedges-b.Hedges), lookups), "count/consult")
	res.set("cluster.peer_errors", float64(a.PeerErrors-b.PeerErrors), "count")
}

func fileSize(path string) int64 {
	if path == "" {
		return 0
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// nullCalibration drives an in-process handler that answers every GET
// with a fixed api.Clip body, over loopback and through cacheclient, with
// the same closed loop as the workloads. Its median call time is the part
// of latency_p50_us the benchmark itself accounts for.
func nullCalibration(repo *media.Repository) (float64, error) {
	clip := repo.Clip(1)
	body, err := json.Marshal(api.Clip{Clip: clip.ID, Kind: clip.Kind.String(), SizeBytes: int64(clip.Size), Outcome: "hit", Hit: true})
	if err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body) // a lost client is the loop's error to count
	})}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	n := &node{name: "null", base: "http://" + ln.Addr().String(), http: newHTTPClient(workers())}
	defer func() {
		n.http.CloseIdleConnections()
		_ = srv.Close() // Serve returns ErrServerClosed, collected below
		<-served
	}()
	if n.client, err = newCacheClient(n.base, n.http); err != nil {
		return 0, err
	}
	ops := []op{{kind: opGet, clip: clip.ID}}
	p := phase{tgt: target{node: n, repo: repo}, ops: ops, cursor: new(atomic.Int64),
		workers: workers(), duration: nullWindow, timed: true}
	res := p.run()
	if res.tally.failed > 0 || len(res.tally.wrong) > 0 || len(res.subs) == 0 {
		return 0, fmt.Errorf("null calibration: %d of %d calls failed %v", res.tally.failed, res.tally.calls, res.tally.wrong)
	}
	return res.medianOf(func(s subWindow) float64 { return micros(percentile(s.lat, 0.50)) }), nil
}
