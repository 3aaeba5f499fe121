// cluster.go — the networked cooperative tier (ISSUE 9). With -node-id
// set, this server joins a consistent-hash ring of cacheservers: on a
// local miss on any clip route (whole-clip or Range GET, batch item) the
// clip's ring owners are consulted over hedged peer reads before the origin
// fetch is booked at origin bandwidth, and three routes are mounted for the
// sibling nodes:
//
//	GET /v1/cluster            ring membership, per-peer breaker and digest
//	                           state, cooperative counters
//	GET /v1/cluster/digest     this node's residency digest (fully resident
//	                           clip IDs) for peers' local probe decisions
//	GET /v1/cluster/clips/{id} peer-serve: 200 iff the clip is fully
//	                           resident here; never touches this node's
//	                           request statistics
//
// Peer-serve deliberately does NOT run the clip through this node's cache
// engine: the serving node's policy and statistics see only its own
// clients, mirroring internal/coop's device model where a peer read costs
// the holder nothing. The requesting node always runs the reference
// through its own pool — its counting and byte identities hold whether
// bytes arrive from a peer or the origin; a peer win only changes which
// link the startup latency is charged to.
package main

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mediacache/internal/api"
	"mediacache/internal/cacheclient"
	"mediacache/internal/cluster"
	"mediacache/internal/media"
	"mediacache/internal/obs"
)

// clusterConfig is the -node-id/-peers slice of the server configuration.
// A zero nodeID leaves the server standalone: no ring, no cluster routes,
// wire responses byte-identical to pre-cluster servers.
type clusterConfig struct {
	nodeID         string
	peers          []cluster.Peer
	replicas       int
	hedgeDelay     time.Duration
	digestInterval time.Duration
	// peerAlloc is the node-to-node link bandwidth: peer-served misses are
	// charged startup latency at this rate instead of the origin's alloc.
	// 0 falls back to the origin bandwidth (peer reads save nothing).
	peerAlloc media.BitsPerSecond
	// client templates the per-peer cacheclient configuration (zero value =
	// the cluster package defaults). The chaos tests use it to route peer
	// traffic through fault-injecting transports.
	client cacheclient.Config
}

// parsePeers parses the -peers flag: comma-separated id=url pairs, e.g.
// "n2=http://10.0.0.2:8377,n3=http://10.0.0.3:8377".
func parsePeers(spec string) ([]cluster.Peer, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var peers []cluster.Peer
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad peer %q: want id=url", part)
		}
		peers = append(peers, cluster.Peer{ID: id, URL: url})
	}
	return peers, nil
}

// initCluster builds the cooperative tier and mounts its routes. Called
// from newServer only when cfg.nodeID is set.
func (s *server) initCluster(cfg clusterConfig) error {
	cl, err := cluster.New(cluster.Config{
		Self:           cfg.nodeID,
		Peers:          cfg.peers,
		Replicas:       cfg.replicas,
		HedgeDelay:     cfg.hedgeDelay,
		DigestInterval: cfg.digestInterval,
		Client:         cfg.client,
	})
	if err != nil {
		return err
	}
	s.cluster = cl
	s.peerAlloc = cfg.peerAlloc
	if s.peerAlloc <= 0 {
		s.peerAlloc = s.alloc
	}
	obs.RegisterClusterMetrics(s.reg, cl)
	// The cluster routes are peer-to-peer infrastructure: instrumented like
	// every route, but never chaos-wrapped — -faults models the flaky
	// device-to-origin link, and a node's injected faults must not cascade
	// into its siblings' probe paths.
	for pattern, h := range map[string]http.HandlerFunc{
		"GET /v1/cluster":            s.handleClusterStatus,
		"GET /v1/cluster/digest":     s.handleClusterDigest,
		"GET /v1/cluster/clips/{id}": s.handleClusterClip,
	} {
		s.mux.Handle(pattern, s.instrument(pattern, h))
	}
	return nil
}

// handleClusterStatus services GET /v1/cluster: ring membership with
// per-peer breaker and digest state, plus the cooperative counters.
func (s *server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.cluster.Status())
}

// handleClusterDigest services GET /v1/cluster/digest: the IDs of every
// fully resident clip, from one consistent pool snapshot. Partially
// resident clips are counted but not listed — a peer probing for a clip
// this node holds half of would receive a 404, so advertising partials
// would only buy wasted round trips.
func (s *server) handleClusterDigest(w http.ResponseWriter, r *http.Request) {
	all, used := s.pool.Residency()
	d := api.ClusterDigest{
		Node:             s.cluster.Self(),
		Seq:              s.digestSeq.Add(1),
		UsedBytes:        int64(used),
		SegmentSizeBytes: int64(s.pool.SegmentSize()),
	}
	for _, c := range all {
		if c.Bytes == c.Clip.Size {
			d.Clips = append(d.Clips, c.Clip.ID)
		} else {
			d.PartialClips++
		}
	}
	writeJSON(w, d)
}

// handleClusterClip services GET /v1/cluster/clips/{id}, the peer-serve
// read: 200 with the clip's size iff the clip is fully resident on this
// node, 404 otherwise. It never calls pool.Request — peer traffic must not
// perturb this node's request statistics, policy state, or identities.
func (s *server) handleClusterClip(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("id")
	id, err := strconv.Atoi(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad clip id %q", raw)
		return
	}
	clip, ok := s.pool.Repository().Lookup(media.ClipID(id))
	if !ok {
		writeError(w, http.StatusNotFound, "clip %d not in repository", id)
		return
	}
	if s.pool.ResidentBytes(clip.ID) < clip.Size {
		writeError(w, http.StatusNotFound, "clip %d not fully resident on %s", id, s.cluster.Self())
		return
	}
	s.cluster.NotePeerServed(int64(clip.Size))
	writeJSON(w, api.ClusterClip{
		Clip:      clip.ID,
		Node:      s.cluster.Self(),
		SizeBytes: int64(clip.Size),
	})
}

// consultPeers asks the clip's ring owners for a clip this node does not
// hold in full and returns the serving peer's ID, or "" when none answered
// (or the node is standalone). The item core calls it for every clip
// reference — whole, ranged or batched — before the local pool books the
// reference, so a peer win downgrades a miss from origin bandwidth to
// peer-link bandwidth without touching any engine accounting.
func (s *server) consultPeers(r *http.Request, clip media.Clip) string {
	if s.cluster == nil {
		return ""
	}
	if s.pool.ResidentBytes(clip.ID) == clip.Size {
		// Locally fully resident: the request is a local hit; peers have
		// nothing to add.
		return ""
	}
	out, ok := s.cluster.Lookup(r.Context(), clip.ID)
	if !ok {
		return ""
	}
	return out.Node
}
