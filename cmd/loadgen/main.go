// Command loadgen is an open-loop load generator for the media cache: it
// offers requests at a fixed arrival rate — arrivals are scheduled on a
// clock, not gated on completions — and reports what the cache actually
// sustained. Closed-loop drivers (like the server throughput benchmarks)
// slow their offered load down to whatever the system completes, hiding
// queueing collapse; the open-loop form keeps offering, so saturation shows
// up honestly as climbing tail latency and shed arrivals.
//
// The workload reuses the simulator's generators through their unified
// workload.Source face: seeded Zipf popularity (internal/workload),
// optional partial-content ranges, optional popularity churn via the
// SHIFTxREQUESTS schedule syntax of -workload, and fitted session specs
// from traceql -fit (-fit replays the spec's own arrival schedule and
// client identities instead of a fixed rate). Targets are either an
// in-process shard pool (-mode pool, the default; misses cost -fetchlat
// and fail with probability -error-rate) or a running cacheserver over
// HTTP (-mode http -url ...).
//
// Every arrival carries a stable client identity — round-robin across
// -clients workers, or the fitted spec's own clients — stamped into the
// X-Client-ID header in HTTP mode, and -reqlog appends an NDJSON request
// log (one api.RequestLogEntry per serviced item) so open-loop runs are
// sessionizable by cmd/traceql whichever target they drove.
//
// Usage examples:
//
//	loadgen -rates 2000,10000,50000 -duration 2s
//	loadgen -mode http -url http://localhost:8377 -rate 5000 -batch 16
//	loadgen -fit "clips=576,theta=0.27,clients=8,sess=10,think=2000,gap=60000" -duration 2s -reqlog run.ndjson
//	loadgen -check
//
// Per rate point it prints offered load, achieved throughput, p50/p99/p999
// latency and the shed/degraded rates; -json archives the table for
// cmd/benchcmp.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mediacache/internal/api"
	"mediacache/internal/cacheclient"
	"mediacache/internal/core"
	"mediacache/internal/fault"
	"mediacache/internal/media"
	_ "mediacache/internal/policy/all" // register the policy catalogue
	"mediacache/internal/shard"
	"mediacache/internal/vtime"
	"mediacache/internal/workload"
	"mediacache/internal/zipf"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
}

// options collects the parsed CLI configuration.
type options struct {
	mode      string
	url       string
	policy    string
	ratio     float64
	shards    int
	seed      uint64
	fetchLat  time.Duration
	errorRate float64
	spec      workload.Spec
	fit       *workload.FitSpec // non-nil: session-paced replay of a fitted spec
	ranges    bool
	clients   int
	rates     []float64
	duration  time.Duration
	batch     int
	maxOut    int
	jsonPath  string
	check     bool
	// reqlog receives the NDJSON request log (-reqlog); nil disables it.
	// reqSeq is the file-global arrival tick shared across rate points.
	reqlog *json.Encoder
	reqSeq *int64
}

// plan is the precomputed reference stream of one sweep target: the
// unified event sequence, the per-arrival client identities, and (in -fit
// mode) the scheduled arrival times.
type plan struct {
	repo   *media.Repository
	events []workload.Request
	ids    []string                // client identity per arrival
	timed  []workload.TimedRequest // non-nil in -fit mode; parallel to events
}

// point is one rate point's outcome — the row the table and the JSON
// archive both render.
type point struct {
	RateHz      float64 `json:"rateHz"`      // offered arrival rate
	Offered     int     `json:"offered"`     // requests scheduled
	Completed   int     `json:"completed"`   // requests serviced
	Shed        int     `json:"shed"`        // arrivals dropped (bound hit or 429)
	Degraded    int     `json:"degraded"`    // serviced as miss-degraded
	Seconds     float64 `json:"seconds"`     // wall time of the point
	AchievedHz  float64 `json:"achievedHz"`  // completed / seconds
	P50Micros   float64 `json:"p50Micros"`   // latency percentiles, scheduled
	P99Micros   float64 `json:"p99Micros"`   // arrival to completion (includes
	P999Micros  float64 `json:"p999Micros"`  // queueing delay: no coordinated omission)
	HitRate     float64 `json:"hitRate"`     // of completed requests
	BatchSize   int     `json:"batchSize"`   // items per arrival
	OutstandMax int     `json:"outstandMax"` // concurrency bound
}

// archive is the -json output document.
type archive struct {
	Tool     string  `json:"tool"` // "loadgen": benchcmp dispatches on this
	Mode     string  `json:"mode"`
	Workload string  `json:"workload"`
	Policy   string  `json:"policy"`
	Shards   int     `json:"shards"`
	Seed     uint64  `json:"seed"`
	Points   []point `json:"points"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	mode := fs.String("mode", "pool", "target: \"pool\" (in-process) or \"http\"")
	url := fs.String("url", "", "server base URL for -mode http")
	policy := fs.String("policy", "greedydual", "cache policy for -mode pool")
	ratio := fs.Float64("ratio", 0.125, "cache size as a fraction of the repository")
	shards := fs.Int("shards", 4, "cache shards for -mode pool")
	seed := fs.Uint64("seed", 42, "seed for workload, faults and jitter")
	fetchLat := fs.Duration("fetchlat", 100*time.Microsecond, "simulated fetch latency per miss (-mode pool)")
	errorRate := fs.Float64("error-rate", 0, "probability a simulated fetch fails (-mode pool)")
	spec := fs.String("workload", "zipf=0.271", "workload spec: zipf=THETA[,SHIFTxREQUESTS...]")
	fitFlag := fs.String("fit", "", "replay a fitted session spec from traceql -fit at its own arrival schedule (overrides -workload/-rate/-batch)")
	ranges := fs.Bool("ranges", false, "mix in partial-content requests (-mode pool)")
	clients := fs.Int("clients", 8, "distinct client identities stamped round-robin per arrival (X-Client-ID, -reqlog)")
	reqlogPath := fs.String("reqlog", "", "append an NDJSON request log (one api.RequestLogEntry per serviced item) to this file, for cmd/traceql (\"\" disables, \"-\" = stdout)")
	rate := fs.Float64("rate", 10000, "offered load in requests/second")
	ratesFlag := fs.String("rates", "", "comma-separated sweep of offered rates (overrides -rate)")
	duration := fs.Duration("duration", 2*time.Second, "offered duration per rate point")
	batch := fs.Int("batch", 1, "items per arrival; >1 uses the batched request API")
	maxOut := fs.Int("maxout", 256, "outstanding-arrival bound; arrivals beyond it shed")
	jsonPath := fs.String("json", "", "archive the results table as JSON to this file")
	check := fs.Bool("check", false, "short fixed-seed smoke run asserting throughput and stats identities")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opt := options{
		mode: *mode, url: *url, policy: *policy, ratio: *ratio, shards: *shards,
		seed: *seed, fetchLat: *fetchLat, errorRate: *errorRate, ranges: *ranges,
		clients: *clients, duration: *duration, batch: *batch, maxOut: *maxOut,
		jsonPath: *jsonPath, check: *check,
	}
	parsed, err := workload.ParseSpec(*spec)
	if err != nil {
		return err
	}
	opt.spec = parsed
	if *fitFlag != "" {
		if *ranges {
			return fmt.Errorf("-fit carries its own range mix; drop -ranges")
		}
		fit, err := workload.ParseFit(*fitFlag)
		if err != nil {
			return err
		}
		opt.fit = &fit
		// The fitted spec paces itself: one point, one item per arrival.
		opt.rates = []float64{0}
		opt.batch = 1
	}
	if *ratesFlag != "" {
		if opt.fit != nil {
			return fmt.Errorf("-fit replays the spec's own arrival schedule; drop -rates")
		}
		for _, f := range strings.Split(*ratesFlag, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || v <= 0 {
				return fmt.Errorf("bad rate %q in -rates", f)
			}
			opt.rates = append(opt.rates, v)
		}
	} else if opt.fit == nil {
		opt.rates = []float64{*rate}
	}
	if opt.batch < 1 {
		opt.batch = 1
	}
	if opt.maxOut < 1 {
		opt.maxOut = 1
	}
	if opt.clients < 1 {
		opt.clients = 1
	}
	if *reqlogPath != "" {
		w := io.Writer(os.Stdout)
		if *reqlogPath != "-" {
			f, err := os.OpenFile(*reqlogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("opening reqlog: %w", err)
			}
			defer f.Close()
			w = f
		}
		opt.reqlog = json.NewEncoder(w)
		opt.reqSeq = new(int64)
	}
	if opt.check {
		return runCheck(out, opt)
	}
	return runSweep(out, opt)
}

// runSweep executes every rate point against one fresh target per point (so
// points don't inherit each other's cache state) and renders the table.
func runSweep(out io.Writer, opt options) error {
	var points []point
	var peerServed uint64
	for _, rateHz := range opt.rates {
		tgt, pl, err := newTarget(opt)
		if err != nil {
			return err
		}
		n := int(rateHz * opt.duration.Seconds())
		if opt.fit != nil {
			// The fitted spec paces itself; the offered rate is whatever
			// its session structure implies over the duration.
			n = len(pl.events)
			rateHz = float64(n) / opt.duration.Seconds()
		}
		if n < 1 {
			n = 1
		}
		p, err := openLoop(tgt, opt, rateHz, n, pl)
		if err != nil {
			return err
		}
		if ht, ok := tgt.(*httpTarget); ok {
			peerServed += ht.peerServed.Load()
		}
		points = append(points, p)
	}
	writeTable(out, points)
	if opt.mode == "http" {
		writeClusterCounters(out, opt, peerServed)
	}
	if opt.jsonPath != "" {
		wl := opt.spec.String()
		if opt.fit != nil {
			wl = opt.fit.String()
		}
		doc := archive{
			Tool: "loadgen", Mode: opt.mode, Workload: wl,
			Policy: opt.policy, Shards: opt.shards, Seed: opt.seed, Points: points,
		}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(opt.jsonPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "archived %d points to %s\n", len(points), opt.jsonPath)
	}
	return nil
}

// writeClusterCounters appends the cooperative-tier line after an HTTP
// sweep: the peer-served responses the drivers observed plus the server's
// own peer/hedge/digest counters from GET /v1/cluster. Standalone servers
// answer 404 there, which silently skips the line — the table is unchanged
// for every pre-cluster deployment.
func writeClusterCounters(out io.Writer, opt options, peerServed uint64) {
	c, err := cacheclient.New(cacheclient.Config{BaseURL: opt.url, MaxAttempts: 1, Seed: opt.seed})
	if err != nil {
		return
	}
	st, err := c.ClusterStatus(context.Background())
	if err != nil {
		return
	}
	fmt.Fprintf(out, "cluster %s: peer-served %d of this sweep; peerHits=%d peerMisses=%d peerErrors=%d hedges=%d hedgeWins=%d digestSkips=%d peers=%d\n",
		st.Node, peerServed, st.PeerHits, st.PeerMisses, st.PeerErrors,
		st.Hedges, st.HedgeWins, st.DigestSkips, len(st.Peers))
}

// writeTable renders the latency-vs-offered-load table.
func writeTable(out io.Writer, points []point) {
	fmt.Fprintf(out, "%12s %10s %12s %10s %10s %10s %7s %9s %8s\n",
		"rate(req/s)", "offered", "achieved/s", "p50(µs)", "p99(µs)", "p999(µs)",
		"shed%", "degraded%", "hit%")
	for _, p := range points {
		fmt.Fprintf(out, "%12.0f %10d %12.0f %10.0f %10.0f %10.0f %7.2f %9.2f %8.2f\n",
			p.RateHz, p.Offered, p.AchievedHz, p.P50Micros, p.P99Micros, p.P999Micros,
			100*float64(p.Shed)/float64(p.Offered),
			100*float64(p.Degraded)/math.Max(1, float64(p.Completed)),
			100*p.HitRate)
	}
}

// itemOutcome is what a target reports per serviced item.
type itemOutcome struct {
	outcome  string // engine outcome label, for the request log
	hit      bool
	degraded bool
	shed     bool // serviced-side shed (HTTP 429); counts shed, not completed
}

// target abstracts where the load goes. serve handles one arrival — batch
// items starting at trace position off — and reports per-item outcomes.
// finalStats returns the engine statistics when the target can see them
// (nil otherwise); used by -check.
type target interface {
	serve(off, n int) ([]itemOutcome, error)
	finalStats() *core.Stats
}

// openLoop offers n requests at rateHz against tgt: arrivals are scheduled
// at fixed interarrival times regardless of completions, each admitted
// arrival is serviced on its own goroutine bounded by opt.maxOut, and an
// arrival that would exceed the bound is shed — the open-loop analogue of a
// full accept queue. Latency is measured from the scheduled arrival time,
// so dispatch lag counts against the system, not the generator.
func openLoop(tgt target, opt options, rateHz float64, n int, pl *plan) (point, error) {
	arrivals := (n + opt.batch - 1) / opt.batch
	interarrival := time.Duration(float64(opt.batch) * float64(time.Second) / rateHz)
	// arrivalAt schedules arrival i: the fitted spec's own inter-arrival
	// structure in -fit mode, a fixed-rate clock otherwise.
	arrivalAt := func(start time.Time, i int) time.Time {
		if pl.timed != nil {
			return start.Add(time.Duration(pl.timed[i].ArrivalMicros) * time.Microsecond)
		}
		return start.Add(time.Duration(i) * interarrival)
	}

	type sample struct {
		lat      time.Duration
		outcomes []itemOutcome
		err      error
	}
	samples := make([]sample, arrivals)
	slots := make(chan struct{}, opt.maxOut)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < arrivals; i++ {
		scheduled := arrivalAt(start, i)
		if d := time.Until(scheduled); d > 0 {
			time.Sleep(d)
		}
		select {
		case slots <- struct{}{}:
		default:
			samples[i].outcomes = nil
			continue
		}
		wg.Add(1)
		go func(i int, scheduled time.Time) {
			defer wg.Done()
			defer func() { <-slots }()
			off := i * opt.batch
			count := opt.batch
			if off+count > n {
				count = n - off
			}
			outcomes, err := tgt.serve(off, count)
			samples[i] = sample{lat: time.Since(scheduled), outcomes: outcomes, err: err}
		}(i, scheduled)
	}
	wg.Wait()
	elapsed := time.Since(start)

	p := point{
		RateHz: rateHz, Offered: n, Seconds: elapsed.Seconds(),
		BatchSize: opt.batch, OutstandMax: opt.maxOut,
	}
	var lats []time.Duration
	hits := 0
	for i, s := range samples {
		if s.err != nil {
			return point{}, s.err
		}
		if s.outcomes == nil { // shed at the generator
			off := i * opt.batch
			count := opt.batch
			if off+count > n {
				count = n - off
			}
			p.Shed += count
			continue
		}
		lats = append(lats, s.lat)
		for _, o := range s.outcomes {
			if o.shed {
				p.Shed++
				continue
			}
			p.Completed++
			if o.hit {
				hits++
			}
			if o.degraded {
				p.Degraded++
			}
		}
	}
	if opt.reqlog != nil {
		// The log is written after the point completes, in arrival order, so
		// ticks in the file are strictly increasing. Generator-side sheds
		// never became requests and are not logged.
		for i, s := range samples {
			if s.outcomes == nil {
				continue
			}
			wall := arrivalAt(start, i).UnixMicro()
			for k, o := range s.outcomes {
				ev := pl.events[i*opt.batch+k]
				*opt.reqSeq++
				e := api.RequestLogEntry{
					Tick:          *opt.reqSeq,
					WallMicros:    wall,
					Client:        pl.ids[i],
					Clip:          ev.Clip,
					SizeBytes:     int64(pl.repo.Clip(ev.Clip).Size),
					Outcome:       o.outcome,
					Hit:           o.hit,
					Status:        200,
					LatencyMicros: s.lat.Microseconds(),
				}
				if opt.mode == "pool" {
					e.Policy = opt.policy
				}
				if ev.Ranged {
					e.StartBytes = int64(ev.Start)
					e.LengthBytes = int64(ev.Length)
				}
				if o.shed {
					e.Status = 429
				}
				if err := opt.reqlog.Encode(e); err != nil {
					return point{}, fmt.Errorf("writing reqlog: %w", err)
				}
			}
		}
	}
	if p.Completed > 0 {
		p.HitRate = float64(hits) / float64(p.Completed)
	}
	p.AchievedHz = float64(p.Completed) / elapsed.Seconds()
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	p.P50Micros = percentileMicros(lats, 0.50)
	p.P99Micros = percentileMicros(lats, 0.99)
	p.P999Micros = percentileMicros(lats, 0.999)
	return p, nil
}

// percentileMicros reads the q-quantile of a sorted latency slice, exact
// (nearest-rank), in microseconds.
func percentileMicros(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Microsecond)
}

// newTarget builds the configured load target with a freshly generated
// reference plan of at least the sweep's largest point.
func newTarget(opt options) (target, *plan, error) {
	repo := media.PaperRepository()
	pl, err := buildPlan(repo, opt)
	if err != nil {
		return nil, nil, err
	}
	switch opt.mode {
	case "pool":
		tgt, err := newPoolTarget(repo, opt, pl)
		return tgt, pl, err
	case "http":
		if opt.url == "" {
			return nil, nil, fmt.Errorf("-mode http requires -url")
		}
		if opt.ranges || (opt.fit != nil && opt.fit.RangedFrac > 0) {
			return nil, nil, fmt.Errorf("ranged requests are only supported with -mode pool")
		}
		tgt, err := newHTTPTarget(opt, pl)
		return tgt, pl, err
	default:
		return nil, nil, fmt.Errorf("bad -mode %q: want \"pool\" or \"http\"", opt.mode)
	}
}

// fitEventCap bounds a -fit plan: a spec whose session structure implies
// more arrivals than this over -duration is truncated rather than draining
// the heap.
const fitEventCap = 2_000_000

// buildPlan generates the unified reference stream through the workload
// Source face: the spec's schedule phase by phase (popularity churn), a
// range mix, or a fitted session spec replayed on its own arrival clock.
func buildPlan(repo *media.Repository, opt options) (*plan, error) {
	if opt.fit != nil {
		src, err := workload.NewSessionSource(*opt.fit, repo, opt.seed)
		if err != nil {
			return nil, err
		}
		horizon := opt.duration.Microseconds()
		pl := &plan{repo: repo}
		for len(pl.timed) < fitEventCap {
			tr, _ := src.NextTimed()
			if tr.ArrivalMicros > horizon && len(pl.timed) > 0 {
				break
			}
			pl.timed = append(pl.timed, tr)
			pl.events = append(pl.events, tr.Request)
			pl.ids = append(pl.ids, tr.Client)
		}
		return pl, nil
	}

	n := 0
	for _, r := range opt.rates {
		if pn := int(r * opt.duration.Seconds()); pn > n {
			n = pn
		}
	}
	if n < 1 {
		n = 1
	}
	dist, err := zipf.New(repo.N(), opt.spec.Theta)
	if err != nil {
		return nil, err
	}
	var src workload.Source
	if opt.ranges {
		rgen, err := workload.NewRangeGenerator(repo, dist, opt.seed, workload.DefaultRangeConfig())
		if err != nil {
			return nil, err
		}
		src = rgen.Source()
	} else {
		gen, err := workload.NewGenerator(dist, opt.seed)
		if err != nil {
			return nil, err
		}
		schedule := opt.spec.Schedule
		if len(schedule) == 0 {
			schedule = workload.Schedule{{Shift: 0, Requests: n}}
		}
		// Cycle the schedule until it covers the sweep, so short schedules
		// still drive long points; Take caps the stream at n.
		repeated := make(workload.Schedule, 0, len(schedule))
		for total := 0; total < n; {
			for _, ph := range schedule {
				repeated = append(repeated, ph)
				total += ph.Requests
				if total >= n {
					break
				}
			}
		}
		src, err = workload.NewScheduleSource(gen, repeated)
		if err != nil {
			return nil, err
		}
	}
	pl := &plan{repo: repo, events: workload.Take(make([]workload.Request, 0, n), src, n)}
	arrivals := (n + opt.batch - 1) / opt.batch
	pl.ids = make([]string, arrivals)
	for i := range pl.ids {
		pl.ids[i] = "w" + strconv.Itoa(i%opt.clients)
	}
	return pl, nil
}

// poolTarget drives an in-process shard pool, the configuration the
// lock-reduced read path is built for.
type poolTarget struct {
	pool   *shard.Pool
	events []workload.Request
	batch  int
}

func newPoolTarget(repo *media.Repository, opt options, pl *plan) (*poolTarget, error) {
	var injMu sync.Mutex
	var inj *fault.Injector
	if opt.errorRate > 0 {
		inj = fault.New(fault.Profile{ErrorRate: opt.errorRate}, opt.seed)
	}
	fetch := func(media.Clip, vtime.Time) error {
		if opt.fetchLat > 0 {
			time.Sleep(opt.fetchLat)
		}
		if inj != nil {
			injMu.Lock()
			f := inj.Next()
			injMu.Unlock()
			if f.Failed() {
				return fmt.Errorf("loadgen: injected fetch failure")
			}
		}
		return nil
	}
	cfg := shard.Config{
		Policy:   opt.policy,
		Repo:     repo,
		Capacity: repo.CacheSizeForRatio(opt.ratio),
		Seed:     opt.seed,
		Shards:   opt.shards,
	}
	if opt.ranges || (opt.fit != nil && opt.fit.RangedFrac > 0) {
		cfg.SegmentSize = 256 * media.MB
		cfg.PrefixSegments = 1
		cfg.SegmentFetch = func(clip media.Clip, seg int32, now vtime.Time) error {
			return fetch(clip, now)
		}
	} else {
		cfg.Fetch = fetch
	}
	pool, err := shard.New(cfg)
	if err != nil {
		return nil, err
	}
	return &poolTarget{pool: pool, events: pl.events, batch: opt.batch}, nil
}

func (t *poolTarget) serve(off, n int) ([]itemOutcome, error) {
	out := make([]itemOutcome, 0, n)
	if t.batch > 1 {
		items := make([]shard.BatchItem, n)
		for k := 0; k < n; k++ {
			ev := t.events[off+k]
			items[k] = shard.BatchItem{ID: ev.Clip, Ranged: ev.Ranged, Start: ev.Start, Length: ev.Length}
		}
		for _, r := range t.pool.RequestBatch(items) {
			if r.Err != nil {
				return nil, r.Err
			}
			out = append(out, itemOutcome{outcome: r.Outcome.String(), hit: r.Outcome.IsHit(), degraded: r.Outcome == core.MissDegraded})
		}
		return out, nil
	}
	for k := 0; k < n; k++ {
		ev := t.events[off+k]
		var (
			o   core.Outcome
			err error
		)
		if ev.Ranged {
			var res core.RangeResult
			res, err = t.pool.RequestRange(ev.Clip, ev.Start, ev.Length)
			o = res.Outcome
		} else {
			o, err = t.pool.Request(ev.Clip)
		}
		if err != nil {
			return nil, err
		}
		out = append(out, itemOutcome{outcome: o.String(), hit: o.IsHit(), degraded: o == core.MissDegraded})
	}
	return out, nil
}

func (t *poolTarget) finalStats() *core.Stats {
	st := t.pool.Stats()
	return &st
}

// httpTarget drives a running cacheserver through the resilient client,
// with retries disabled: an open-loop generator must observe failures, not
// paper over them with backoff. Each client identity gets its own
// cacheclient instance so every request carries that identity's
// X-Client-ID header — the server's -reqlog sessionizes per worker.
type httpTarget struct {
	clients map[string]*cacheclient.Client
	ids     []string // client identity per arrival
	events  []workload.Request
	batch   int
	// peerServed counts responses a clustered server attributed to a ring
	// peer (the wire peer field) — zero against standalone servers.
	peerServed atomic.Uint64
}

func newHTTPTarget(opt options, pl *plan) (*httpTarget, error) {
	clients := make(map[string]*cacheclient.Client)
	for _, id := range pl.ids {
		if _, ok := clients[id]; ok {
			continue
		}
		c, err := cacheclient.New(cacheclient.Config{
			BaseURL:     opt.url,
			MaxAttempts: 1,
			Seed:        opt.seed,
			ClientID:    id,
		})
		if err != nil {
			return nil, err
		}
		clients[id] = c
	}
	return &httpTarget{clients: clients, ids: pl.ids, events: pl.events, batch: opt.batch}, nil
}

func (t *httpTarget) serve(off, n int) ([]itemOutcome, error) {
	ctx := context.Background()
	client := t.clients[t.ids[off/t.batch]]
	out := make([]itemOutcome, 0, n)
	if t.batch > 1 {
		ids := make([]media.ClipID, n)
		for k := 0; k < n; k++ {
			ids[k] = t.events[off+k].Clip
		}
		items, err := client.GetBatch(ctx, ids)
		if err != nil {
			if shed, serr := shedStatus(err); shed {
				for k := 0; k < n; k++ {
					out = append(out, itemOutcome{shed: true})
				}
				return out, nil
			} else if serr != nil {
				return nil, serr
			}
			return nil, err
		}
		for _, it := range items {
			out = append(out, classifyHTTP(it.Status, it.Outcome, it.Hit))
		}
		return out, nil
	}
	for k := 0; k < n; k++ {
		clip, err := client.Clip(ctx, t.events[off+k].Clip)
		if err != nil {
			if shed, serr := shedStatus(err); shed {
				out = append(out, itemOutcome{shed: true})
				continue
			} else if serr != nil {
				return nil, serr
			}
			return nil, err
		}
		if clip.Peer != "" {
			t.peerServed.Add(1)
		}
		out = append(out, classifyHTTP(200, clip.Outcome, clip.Hit))
	}
	return out, nil
}

func (t *httpTarget) finalStats() *core.Stats { return nil }

// shedStatus classifies a client error: a 429 is load shedding (count it,
// keep offering), 5xx is a degraded transfer modeled server-side, anything
// else aborts the run.
func shedStatus(err error) (shed bool, fatal error) {
	var se *cacheclient.StatusError
	if !asStatusError(err, &se) {
		return false, err
	}
	switch {
	case se.Status == 429:
		return true, nil
	case se.Status >= 500:
		return false, nil // surfaced per item as degraded by the caller
	default:
		return false, err
	}
}

// classifyHTTP folds one served item's wire fields into an itemOutcome.
func classifyHTTP(status int, outcome string, hit bool) itemOutcome {
	if status == 429 {
		return itemOutcome{shed: true}
	}
	return itemOutcome{outcome: outcome, hit: hit, degraded: outcome == core.MissDegraded.String() || status >= 500}
}

// asStatusError is errors.As without importing errors twice in this file's
// hot path helpers.
func asStatusError(err error, target **cacheclient.StatusError) bool {
	for err != nil {
		if se, ok := err.(*cacheclient.StatusError); ok {
			*target = se
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// runCheck is the `make loadcheck` entry: a short fixed-seed pool run that
// must sustain nonzero throughput and leave the engine's statistics
// satisfying the counting and byte identities.
func runCheck(out io.Writer, opt options) error {
	opt.mode = "pool"
	opt.rates = []float64{20000}
	opt.duration = 500 * time.Millisecond
	opt.batch = 8
	opt.errorRate = 0.1
	opt.fetchLat = 50 * time.Microsecond

	tgt, pl, err := newTarget(opt)
	if err != nil {
		return err
	}
	n := int(opt.rates[0] * opt.duration.Seconds())
	p, err := openLoop(tgt, opt, opt.rates[0], n, pl)
	if err != nil {
		return err
	}
	writeTable(out, []point{p})
	if p.Completed == 0 || p.AchievedHz <= 0 {
		return fmt.Errorf("loadcheck: no throughput (completed %d)", p.Completed)
	}
	st := tgt.finalStats()
	if st == nil {
		return fmt.Errorf("loadcheck: target exposes no stats")
	}
	// Requests == Hits + MissCached + Bypassed + FetchFailed, with
	// MissCached the residual of the other counters — so the checkable form
	// is that the residual never underflows.
	if st.Hits+st.Bypassed+st.FetchFailed > st.Requests {
		return fmt.Errorf("loadcheck: counting identity violated: hits %d + bypassed %d + failed %d > requests %d",
			st.Hits, st.Bypassed, st.FetchFailed, st.Requests)
	}
	if got := st.BytesHit + st.BytesFetched + st.BytesFailed; got != st.BytesReferenced {
		return fmt.Errorf("loadcheck: byte identity violated: %v + %v + %v != %v",
			st.BytesHit, st.BytesFetched, st.BytesFailed, st.BytesReferenced)
	}
	if uint64(p.Completed) != st.Requests {
		return fmt.Errorf("loadcheck: driver completed %d requests, engine saw %d", p.Completed, st.Requests)
	}
	if st.FetchFailed == 0 {
		return fmt.Errorf("loadcheck: fault profile injected no failures")
	}
	fmt.Fprintf(out, "loadcheck ok: %d requests, %.0f req/s achieved, identities hold\n",
		p.Completed, p.AchievedHz)
	return nil
}
