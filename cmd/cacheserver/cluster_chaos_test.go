package main

// cluster_chaos_test.go is the race-detector acceptance test of the
// cooperative cluster tier (ISSUE 9): three clustered nodes serve a Zipf
// workload while the peer links degrade through internal/fault profiles
// (slow, flaky links), then one node is killed and another partitioned.
// Survivors must keep serving, every node's counting and byte identities
// must hold exactly, and the cooperative hit rate must beat a no-peer
// baseline driven with the identical request schedule.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mediacache/internal/api"
	"mediacache/internal/cacheclient"
	"mediacache/internal/cluster"
	"mediacache/internal/fault"
	"mediacache/internal/media"
	"mediacache/internal/netsim"
	"mediacache/internal/randutil"
	"mediacache/internal/zipf"
)

// chaosTransport degrades a node's outbound peer links: every round trip
// consults a deterministic fault injector (slow/flaky link), a blocked-host
// set models a network partition from specific peers, and cutAll models
// this node's own uplink going dark.
type chaosTransport struct {
	mu      sync.Mutex
	inj     *fault.Injector
	blocked map[string]bool
	cutAll  atomic.Bool
}

func (ct *chaosTransport) block(host string) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.blocked == nil {
		ct.blocked = make(map[string]bool)
	}
	ct.blocked[host] = true
}

func (ct *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ct.cutAll.Load() {
		return nil, errors.New("chaos: node partitioned, all peer links dark")
	}
	ct.mu.Lock()
	blocked := ct.blocked[req.URL.Host]
	var f fault.Fault
	if ct.inj != nil {
		f = ct.inj.Next()
	}
	ct.mu.Unlock()
	if blocked {
		return nil, fmt.Errorf("chaos: peer %s unreachable", req.URL.Host)
	}
	if f.Latency > 0 {
		time.Sleep(f.Latency)
	}
	if f.Failed() {
		return nil, fmt.Errorf("chaos: injected %v on peer link", f.Kind)
	}
	return http.DefaultTransport.RoundTrip(req)
}

// clusterNode is one cacheserver process of the test ring.
type clusterNode struct {
	id        string
	srv       *server
	ts        *httptest.Server
	transport *chaosTransport
}

func (n *clusterNode) host(t *testing.T) string {
	t.Helper()
	u, err := url.Parse(n.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// newChaosNode builds one clustered node whose peer links run through a
// chaosTransport fed by profile (seeded per node, so schedules are
// deterministic and distinct).
func newChaosNode(t *testing.T, id string, seed uint64, profile fault.Profile, clustered bool) *clusterNode {
	t.Helper()
	ct := &chaosTransport{}
	if profile.Enabled() {
		ct.inj = fault.New(profile, seed)
	}
	cfg := testConfig()
	cfg.shards = 2
	cfg.seed = seed
	if clustered {
		cfg.cluster = clusterConfig{
			nodeID:     id,
			replicas:   2,
			hedgeDelay: 2 * time.Millisecond,
			// The loop is never started in tests; digests refresh on demand.
			digestInterval: time.Hour,
			peerAlloc:      100 * media.Mbps,
			client: cacheclient.Config{
				BaseURL:        "http://placeholder.invalid",
				MaxAttempts:    2,
				AttemptTimeout: 500 * time.Millisecond,
				BaseBackoff:    time.Millisecond,
				MaxBackoff:     5 * time.Millisecond,
				HTTPClient:     &http.Client{Transport: ct},
			},
		}
	}
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &clusterNode{id: id, srv: srv, ts: ts, transport: ct}
}

// driveStats aggregates what the drivers observed per node.
type driveStats struct {
	served     uint64 // 200s
	hits       uint64 // outcome "hit"
	missCached uint64 // outcome "miss-cached"
	peerWon    uint64 // responses naming a serving peer
}

// drive sends schedule[i] to nodes[i%len(nodes)] (skipping nodes marked
// dead) with `workers` concurrent clients and returns per-node totals.
func driveCluster(t *testing.T, nodes []*clusterNode, dead map[string]bool, schedule []media.ClipID, workers int) map[string]*driveStats {
	t.Helper()
	stats := make(map[string]*driveStats, len(nodes))
	for _, n := range nodes {
		stats[n.id] = &driveStats{}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	per := (len(schedule) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := min(lo+per, len(schedule))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				n := nodes[i%len(nodes)]
				if dead[n.id] {
					continue
				}
				resp, err := http.Get(fmt.Sprintf("%s/v1/clips/%d", n.ts.URL, schedule[i]))
				if err != nil {
					t.Errorf("node %s: request failed: %v", n.id, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("node %s: clip %d: status %d", n.id, schedule[i], resp.StatusCode)
					resp.Body.Close()
					return
				}
				var clip api.Clip
				if err := json.NewDecoder(resp.Body).Decode(&clip); err != nil {
					t.Errorf("node %s: bad clip body: %v", n.id, err)
					resp.Body.Close()
					return
				}
				resp.Body.Close()
				mu.Lock()
				st := stats[n.id]
				st.served++
				switch clip.Outcome {
				case "hit":
					st.hits++
				case "miss-cached":
					st.missCached++
				}
				if clip.Peer != "" {
					st.peerWon++
				}
				mu.Unlock()
			}
		}(lo, hi)
	}
	wg.Wait()
	return stats
}

// refreshAll pulls digests on every live node.
func refreshAll(t *testing.T, nodes []*clusterNode, dead map[string]bool) {
	t.Helper()
	for _, n := range nodes {
		if !dead[n.id] {
			n.srv.cluster.RefreshDigests(context.Background())
		}
	}
}

// assertIdentities checks the engine's counting and byte identities on one
// node's aggregated pool snapshot. missCached is the driver-observed
// miss-cached outcome count — the engine does not track it separately, so
// the identity closes over what the clients saw.
func assertIdentities(t *testing.T, n *clusterNode, missCached uint64) {
	t.Helper()
	st := n.srv.pool.Stats()
	if got := st.Hits + missCached + st.Bypassed + st.FetchFailed; st.Requests != got {
		t.Errorf("node %s: counting identity violated: requests %d != hits %d + missCached %d + bypassed %d + fetchFailed %d",
			n.id, st.Requests, st.Hits, missCached, st.Bypassed, st.FetchFailed)
	}
	if st.BytesHit+st.BytesFetched+st.BytesFailed != st.BytesReferenced {
		t.Errorf("node %s: byte identity violated: hit %d + fetched %d + failed %d != referenced %d",
			n.id, st.BytesHit, st.BytesFetched, st.BytesFailed, st.BytesReferenced)
	}
}

// zipfSchedule draws a deterministic Zipf request schedule over the paper
// repository.
func zipfSchedule(t *testing.T, n int, seed uint64) []media.ClipID {
	t.Helper()
	repo := media.PaperRepository()
	dist, err := zipf.New(repo.N(), zipf.DefaultMean)
	if err != nil {
		t.Fatal(err)
	}
	src := randutil.NewSource(seed)
	ids := make([]media.ClipID, n)
	for i := range ids {
		ids[i] = media.ClipID(dist.Sample(src)) // Sample is 1-indexed
	}
	return ids
}

func TestClusterChaosDrive(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node chaos drive")
	}
	// Slow, flaky peer links: 5% outright failures plus ~1ms of injected
	// latency on every peer round trip. The public clip routes stay clean —
	// chaos lives between the nodes, not between client and node.
	linkProfile := fault.Profile{ErrorRate: 0.05, Latency: time.Millisecond, Jitter: 500 * time.Microsecond}
	nodes := []*clusterNode{
		newChaosNode(t, "n1", 101, linkProfile, true),
		newChaosNode(t, "n2", 102, linkProfile, true),
		newChaosNode(t, "n3", 103, linkProfile, true),
	}
	// Two-phase bring-up: ring URLs exist only after the listeners start.
	for _, n := range nodes {
		var peers []cluster.Peer
		for _, p := range nodes {
			if p.id != n.id {
				peers = append(peers, cluster.Peer{ID: p.id, URL: p.ts.URL})
			}
		}
		if err := n.srv.cluster.SetPeers(peers); err != nil {
			t.Fatal(err)
		}
	}

	schedule := zipfSchedule(t, 1800, 7)
	warm, chaosPhase := schedule[:1200], schedule[1200:]

	// Phase 1: full ring, degraded links. Interleave digest refreshes so
	// the absent-verdict veto and the probe path both see traffic.
	none := map[string]bool{}
	stats1 := driveCluster(t, nodes, none, warm[:300], 4)
	refreshAll(t, nodes, none)
	stats2 := driveCluster(t, nodes, none, warm[300:], 6)
	refreshAll(t, nodes, none)

	// Phase 2: kill n3 (process gone, listener closed), partition n2 (its
	// uplink dark, and n1 cannot reach it). Survivors must keep serving
	// every request.
	nodes[2].ts.Close()
	nodes[1].transport.cutAll.Store(true)
	nodes[0].transport.block(nodes[1].host(t))
	nodes[0].transport.block(nodes[2].host(t))
	dead := map[string]bool{"n3": true}
	stats3 := driveCluster(t, nodes, dead, chaosPhase, 6)

	// Every node — including the killed one's engine — holds its
	// identities, and driver-observed totals match each node's engine
	// exactly: peer traffic (served on behalf of siblings) must not
	// inflate them.
	var coopServed, coopHits, coopPeer uint64
	for _, n := range nodes {
		var served, hits, missCached, peer uint64
		for _, st := range []map[string]*driveStats{stats1, stats2, stats3} {
			served += st[n.id].served
			hits += st[n.id].hits
			missCached += st[n.id].missCached
			peer += st[n.id].peerWon
		}
		assertIdentities(t, n, missCached)
		pst := n.srv.pool.Stats()
		if pst.Requests != served {
			t.Errorf("node %s: engine requests %d != driver-observed 200s %d", n.id, pst.Requests, served)
		}
		if pst.Hits != hits {
			t.Errorf("node %s: engine hits %d != driver-observed hits %d", n.id, pst.Hits, hits)
		}
		coopServed += served
		coopHits += hits
		coopPeer += peer
	}
	if coopPeer == 0 {
		t.Fatal("no request was peer-served; the cooperative tier never engaged")
	}
	cnt1 := nodes[0].srv.cluster.Counters()
	if cnt1.PeerHits == 0 {
		t.Error("n1 booked no peer hits despite peer-served responses")
	}
	if cnt1.DigestRefreshes == 0 {
		t.Error("n1 refreshed no digests")
	}

	// The partitioned node must have kept serving alone: all its phase-2
	// requests answered, none peer-served.
	if st := stats3["n2"]; st.served == 0 {
		t.Error("partitioned n2 served nothing in phase 2")
	} else if st.peerWon != 0 {
		t.Errorf("partitioned n2 reported %d peer-served responses", st.peerWon)
	}

	// No-peer baseline: identical schedule, identical routing (including
	// the dead-node skips), standalone nodes. The cooperative hit rate —
	// local hits plus peer-served misses over requests — must beat it.
	base := []*clusterNode{
		newChaosNode(t, "n1", 101, fault.Profile{}, false),
		newChaosNode(t, "n2", 102, fault.Profile{}, false),
		newChaosNode(t, "n3", 103, fault.Profile{}, false),
	}
	b1 := driveCluster(t, base, none, warm[:300], 4)
	b2 := driveCluster(t, base, none, warm[300:], 6)
	base[2].ts.Close()
	b3 := driveCluster(t, base, map[string]bool{"n3": true}, chaosPhase, 6)
	var baseServed, baseHits uint64
	for _, n := range base {
		for _, st := range []map[string]*driveStats{b1, b2, b3} {
			baseServed += st[n.id].served
			baseHits += st[n.id].hits
		}
	}
	if baseServed != coopServed {
		t.Fatalf("baseline served %d requests, cluster served %d — schedules diverged", baseServed, coopServed)
	}
	coopRate := float64(coopHits+coopPeer) / float64(coopServed)
	baseRate := float64(baseHits) / float64(baseServed)
	if coopRate <= baseRate {
		t.Errorf("cooperative hit rate %.4f does not beat the no-peer baseline %.4f", coopRate, baseRate)
	}
	t.Logf("coop rate %.4f (local %.4f + peer %d/%d), baseline %.4f; n1 counters %+v",
		coopRate, float64(coopHits)/float64(coopServed), coopPeer, coopServed, baseRate, cnt1)
}

// TestClusterRebalanceOverHTTP exercises the ring-rebalance protocol: when
// membership changes, a node's resident set moves to its new owner through
// the portable snapshot — pulled and restored over the wire with the peer
// client, across different shard counts, preserving residency exactly.
func TestClusterRebalanceOverHTTP(t *testing.T) {
	src := newChaosNode(t, "src", 21, fault.Profile{}, true)
	cfg := testConfig()
	cfg.shards = 3 // different partitioning on the receiving node
	// Hash re-partitioning skews per-shard load; a bigger cache keeps every
	// slice under capacity so the restore validator accepts the snapshot.
	cfg.ratio = 0.25
	cfg.seed = 22
	cfg.cluster = clusterConfig{nodeID: "dst", replicas: 2, digestInterval: time.Hour}
	dstSrv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dstTS := httptest.NewServer(dstSrv)
	t.Cleanup(dstTS.Close)

	// Warm the source node, then hand its state to dst as a ring change
	// would: dst discovers src departing, pulls its snapshot, restores it.
	for _, id := range zipfSchedule(t, 200, 5) {
		resp, err := http.Get(fmt.Sprintf("%s/v1/clips/%d", src.ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if err := dstSrv.cluster.SetPeers([]cluster.Peer{{ID: "src", URL: src.ts.URL}}); err != nil {
		t.Fatal(err)
	}
	cl := dstSrv.cluster.PeerClient("src")
	if cl == nil {
		t.Fatal("no peer client for src")
	}
	snap, err := cl.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dstCl, err := cacheclient.New(cacheclient.Config{BaseURL: dstTS.URL})
	if err != nil {
		t.Fatal(err)
	}
	if err := dstCl.Restore(context.Background(), snap); err != nil {
		t.Fatal(err)
	}

	wantIDs := src.srv.pool.ResidentIDs()
	gotIDs := dstSrv.pool.ResidentIDs()
	if len(wantIDs) == 0 {
		t.Fatal("source node has nothing resident; rebalance test is vacuous")
	}
	if fmt.Sprint(wantIDs) != fmt.Sprint(gotIDs) {
		t.Fatalf("resident sets diverged after rebalance:\nsrc %v\ndst %v", wantIDs, gotIDs)
	}
	// The moved clips are immediately peer-servable from the new owner.
	var cc api.ClusterClip
	resp := getJSON(t, fmt.Sprintf("%s/v1/cluster/clips/%d", dstTS.URL, wantIDs[0]), &cc)
	if resp.StatusCode != http.StatusOK || cc.Node != "dst" {
		t.Fatalf("rebalanced clip %d not servable from dst: status %d %+v", wantIDs[0], resp.StatusCode, cc)
	}
}

// TestClusterRoutesStandalone pins the standalone behaviour: without
// -node-id the cluster routes do not exist and clip responses carry no
// peer field.
func TestClusterRoutesStandalone(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/v1/cluster", "/v1/cluster/digest", "/v1/cluster/clips/1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s on standalone server: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestClusterPeerServeAndDigest pins the peer-facing routes of one
// clustered node: digest lists exactly the fully resident clips, the
// peer-serve read answers 200 only for them and never perturbs the node's
// request statistics.
func TestClusterPeerServeAndDigest(t *testing.T) {
	n := newChaosNode(t, "solo", 55, fault.Profile{}, true)

	// Make some clips resident.
	for _, id := range []media.ClipID{1, 2, 3} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/clips/%d", n.ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	before := n.srv.pool.Stats()

	var d api.ClusterDigest
	getJSON(t, n.ts.URL+"/v1/cluster/digest", &d)
	if d.Node != "solo" || d.Seq == 0 {
		t.Fatalf("digest metadata wrong: %+v", d)
	}
	listed := make(map[media.ClipID]bool, len(d.Clips))
	for _, id := range d.Clips {
		listed[id] = true
	}
	all, _ := n.srv.pool.Residency()
	for _, c := range all {
		if full := c.Bytes == c.Clip.Size; full != listed[c.Clip.ID] {
			t.Errorf("clip %d: fully resident %v but digest-listed %v", c.Clip.ID, full, listed[c.Clip.ID])
		}
	}
	if len(d.Clips) == 0 {
		t.Fatal("digest lists nothing after three admitted clips")
	}

	// Peer-serve a resident clip and probe a non-resident one.
	var cc api.ClusterClip
	resp := getJSON(t, fmt.Sprintf("%s/v1/cluster/clips/%d", n.ts.URL, d.Clips[0]), &cc)
	if resp.StatusCode != http.StatusOK || cc.Node != "solo" || cc.SizeBytes <= 0 {
		t.Fatalf("peer-serve of resident clip: status %d body %+v", resp.StatusCode, cc)
	}
	var missing media.ClipID
	for id := media.ClipID(1); id <= media.ClipID(n.srv.pool.Repository().N()); id++ {
		if !listed[id] {
			missing = id
			break
		}
	}
	if resp := getJSON(t, fmt.Sprintf("%s/v1/cluster/clips/%d", n.ts.URL, missing), nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("peer-serve of non-resident clip %d: status %d, want 404", missing, resp.StatusCode)
	}

	// Peer traffic must not count as requests on the serving node.
	after := n.srv.pool.Stats()
	if after.Requests != before.Requests {
		t.Errorf("peer-serve perturbed request count: %d -> %d", before.Requests, after.Requests)
	}
	st := n.srv.cluster.Counters()
	if st.PeerServed != 1 || st.PeerServedBytes != uint64(cc.SizeBytes) {
		t.Errorf("peer-serve counters = served %d bytes %d, want 1/%d", st.PeerServed, st.PeerServedBytes, cc.SizeBytes)
	}

	// The status route reflects the (peer-less) ring.
	var cs api.ClusterStatus
	getJSON(t, n.ts.URL+"/v1/cluster", &cs)
	if cs.Node != "solo" || cs.Replicas != 2 || len(cs.Peers) != 0 {
		t.Errorf("cluster status = %+v", cs)
	}
	if cs.PeerServed != 1 {
		t.Errorf("status PeerServed = %d, want 1", cs.PeerServed)
	}
}

// TestClusterRangeAndBatchConsultPeers proves every clip route consults the
// ring, not only the whole-clip GET: with B holding the clips, A's Range GET
// and its batch misses (ranged and whole-clip) name B as the serving peer,
// are charged startup latency at the peer-link bandwidth, and leave A's own
// ledger identities intact.
func TestClusterRangeAndBatchConsultPeers(t *testing.T) {
	a := newChaosNode(t, "a", 61, fault.Profile{}, true)
	b := newChaosNode(t, "b", 62, fault.Profile{}, true)
	if err := a.srv.cluster.SetPeers([]cluster.Peer{{ID: "b", URL: b.ts.URL}}); err != nil {
		t.Fatal(err)
	}
	if err := b.srv.cluster.SetPeers([]cluster.Peer{{ID: "a", URL: a.ts.URL}}); err != nil {
		t.Fatal(err)
	}
	ids := []media.ClipID{1, 2, 3, 4}
	for _, id := range ids {
		resp := getJSON(t, fmt.Sprintf("%s/v1/clips/%d", b.ts.URL, id), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warming B with clip %d: status %d", id, resp.StatusCode)
		}
	}
	a.srv.cluster.RefreshDigests(context.Background())

	repo := a.srv.pool.Repository()
	peerLatency := func(id media.ClipID) float64 {
		t.Helper()
		lat, err := netsim.StartupLatency(repo.Clip(id), a.srv.peerAlloc, a.srv.admission)
		if err != nil {
			t.Fatal(err)
		}
		return float64(lat)
	}
	type seen struct {
		id      media.ClipID
		outcome string
		peer    string
		latency float64
	}
	var got []seen

	var clip api.Clip
	resp := getRange(t, fmt.Sprintf("%s/v1/clips/%d", a.ts.URL, ids[0]), "bytes=0-1023", nil, &clip)
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("Range GET status %d, want 206", resp.StatusCode)
	}
	got = append(got, seen{ids[0], clip.Outcome, clip.Peer, clip.LatencySeconds})

	start, length := int64(0), int64(1<<20)
	_, out := postBatch(t, a.ts.URL, api.BatchRequest{Items: []api.BatchItem{
		{Clip: ids[1]},
		{Clip: ids[2], StartBytes: &start, LengthBytes: &length},
		{Clip: ids[3]},
	}})
	for k, it := range out.Items {
		if it.Status != http.StatusOK && it.Status != http.StatusPartialContent {
			t.Fatalf("batch item %d: status %d (%s)", k, it.Status, it.Error)
		}
		got = append(got, seen{ids[k+1], it.Outcome, it.Peer, it.LatencySeconds})
	}

	var missCached uint64
	for _, g := range got {
		if g.outcome == "hit" {
			t.Fatalf("clip %d: hit on a cold node", g.id)
		}
		if g.outcome == "miss-cached" {
			missCached++
		}
		if g.peer != "b" {
			t.Errorf("clip %d: peer %q, want \"b\"", g.id, g.peer)
		}
		if want := peerLatency(g.id); g.latency != want {
			t.Errorf("clip %d: latency %v, want %v (peer-link bandwidth)", g.id, g.latency, want)
		}
	}
	assertIdentities(t, a, missCached)
	if st := a.srv.pool.Stats(); st.Requests != uint64(len(got)) {
		t.Errorf("A booked %d requests, want %d", st.Requests, len(got))
	}
	if c := a.srv.cluster.Counters(); c.PeerHits != uint64(len(got)) {
		t.Errorf("A's peer hits = %d, want %d", c.PeerHits, len(got))
	}
}
