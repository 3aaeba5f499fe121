// Package api declares the wire types of the cacheserver /v1 HTTP API.
//
// The server (cmd/cacheserver) and the resilient client
// (internal/cacheclient) both consume these structs, so the JSON contract
// lives in exactly one place. Field names are frozen: renaming a json tag
// is a breaking API change and requires a version bump, not an edit here.
package api

import "mediacache/internal/media"

// Version is the current API version prefix of every route.
const Version = "/v1"

// ClientIDHeader names the requesting client on the wire; the server copies
// it into the Client field of its -reqlog entries so traceql can sessionize
// per client. Requests without it are logged anonymously.
const ClientIDHeader = "X-Client-ID"

// Error is the uniform JSON error envelope every non-2xx response carries.
type Error struct {
	Error string `json:"error"`
}

// SegmentInfo summarizes a clip's segment residency on a segmented server.
type SegmentInfo struct {
	// SizeBytes is the fixed segment granularity (the clip's last segment
	// may be shorter).
	SizeBytes int64 `json:"sizeBytes"`
	// Total is the number of segments the clip divides into.
	Total int `json:"total"`
	// Resident is how many of them are currently cached.
	Resident int `json:"resident"`
}

// RangeInfo describes how one served byte range split across cache, network
// and failure; attached to Clip responses of Range requests.
type RangeInfo struct {
	StartBytes   int64 `json:"startBytes"`
	LengthBytes  int64 `json:"lengthBytes"`
	BytesHit     int64 `json:"bytesHit"`
	BytesFetched int64 `json:"bytesFetched"`
	BytesFailed  int64 `json:"bytesFailed"`
}

// Clip is the response of GET /v1/clips/{id}: the outcome of one cache
// request. LatencySeconds is the modeled startup latency and is zero on
// hits. The segment fields appear only on segmented servers, so pre-segment
// clients decode responses unchanged.
type Clip struct {
	Clip           media.ClipID `json:"clip"`
	Kind           string       `json:"kind"`
	SizeBytes      int64        `json:"sizeBytes"`
	Outcome        string       `json:"outcome"`
	Hit            bool         `json:"hit"`
	LatencySeconds float64      `json:"latencySeconds"`
	BytesResident  int64        `json:"bytesResident,omitempty"`
	PrefixSegments int          `json:"prefixSegments,omitempty"`
	Segments       *SegmentInfo `json:"segments,omitempty"`
	Range          *RangeInfo   `json:"range,omitempty"`
	// ExpiresAtTick is the virtual time (on the owning shard's clock) at
	// which the clip's cached copy expires. Present only on TTL-enabled
	// servers for resident clips, so pre-churn responses are unchanged.
	ExpiresAtTick int64 `json:"expiresAtTick,omitempty"`
	// Peer is the cluster node that serviced this miss over the peer link
	// instead of the origin. Present only on clustered servers when a peer
	// read won, so pre-cluster responses are unchanged.
	Peer string `json:"peer,omitempty"`
}

// BatchItem is one clip reference in a POST /v1/batch request. When
// StartBytes/LengthBytes are present the item is a partial-content
// reference, exactly like GET /v1/clips/{id}?start=&length=; a negative
// LengthBytes means "to the end of the clip".
type BatchItem struct {
	Clip        media.ClipID `json:"clip"`
	StartBytes  *int64       `json:"startBytes,omitempty"`
	LengthBytes *int64       `json:"lengthBytes,omitempty"`
}

// BatchRequest is the body of POST /v1/batch: an ordered list of clip
// references serviced as one cache batch.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchItemResult is the outcome of one BatchItem, in the same position.
// Status carries the HTTP status the item would have received as an
// individual request (200, 404, ...); on non-2xx items Error holds the
// message and the outcome fields are zero.
type BatchItemResult struct {
	Clip           media.ClipID `json:"clip"`
	Status         int          `json:"status"`
	Outcome        string       `json:"outcome,omitempty"`
	Hit            bool         `json:"hit,omitempty"`
	SizeBytes      int64        `json:"sizeBytes,omitempty"`
	LatencySeconds float64      `json:"latencySeconds,omitempty"`
	Range          *RangeInfo   `json:"range,omitempty"`
	Error          string       `json:"error,omitempty"`
	// Peer is the cluster node that serviced this miss over the peer link,
	// as on api.Clip; absent on standalone servers and for hits.
	Peer string `json:"peer,omitempty"`
}

// BatchResponse is the response of POST /v1/batch. Shed reports that the
// server was saturated or degraded while servicing the batch, signalling
// open-loop load generators to count the batch against their shed budget.
type BatchResponse struct {
	Items []BatchItemResult `json:"items"`
	Shed  bool              `json:"shed,omitempty"`
}

// Stats is the response of GET /v1/stats. With a sharded cache the counters
// are aggregated over every shard and Shards reports the shard count
// (omitted by pre-sharding servers).
type Stats struct {
	Policy          string  `json:"policy"`
	Shards          int     `json:"shards,omitempty"`
	Requests        uint64  `json:"requests"`
	Hits            uint64  `json:"hits"`
	HitRate         float64 `json:"hitRate"`
	ByteHitRate     float64 `json:"byteHitRate"`
	Evictions       uint64  `json:"evictions"`
	BytesFetched    int64   `json:"bytesFetched"`
	BytesFailed     int64   `json:"bytesFailed"`
	DegradedMisses  uint64  `json:"degradedMisses"`
	ResidentClips   int     `json:"residentClips"`
	UsedBytes       int64   `json:"usedBytes"`
	CapacityBytes   int64   `json:"capacityBytes"`
	BypassedMisses  uint64  `json:"bypassedMisses"`
	VictimCalls     uint64  `json:"victimCalls"`
	TheoreticalNote string  `json:"note,omitempty"`

	// Segment-granular fields; all zero (and omitted) on unsegmented
	// servers, keeping the pre-segment wire shape byte-identical.
	SegmentSizeBytes int64  `json:"segmentSizeBytes,omitempty"`
	PrefixSegments   int    `json:"prefixSegments,omitempty"`
	ResidentSegments int    `json:"residentSegments,omitempty"`
	PartialHits      uint64 `json:"partialHits,omitempty"`
	SegmentsFetched  uint64 `json:"segmentsFetched,omitempty"`
	SegmentsEvicted  uint64 `json:"segmentsEvicted,omitempty"`

	// Catalog-dynamics fields (ISSUE 8); all zero (and omitted) when TTL is
	// off and nothing was invalidated, keeping the pre-churn wire shape
	// byte-identical. TTLTicks is the per-clip expiry in virtual ticks.
	TTLTicks         int64  `json:"ttlTicks,omitempty"`
	Invalidated      uint64 `json:"invalidated,omitempty"`
	Expired          uint64 `json:"expired,omitempty"`
	BytesInvalidated int64  `json:"bytesInvalidated,omitempty"`
}

// RequestLogEntry is one line of the NDJSON request log written by
// `cacheserver -reqlog` (and mirrored client-side by `loadgen -reqlog`):
// one serviced clip reference with its requester, arrival time, byte range,
// outcome and latency — everything cmd/traceql needs to sessionize
// measured traffic. Tick is the server's global arrival sequence number;
// WallMicros is the arrival wall-clock time in microseconds since the Unix
// epoch. A zero LengthBytes means the whole clip was referenced, matching
// the trace v2 range convention. LatencyMicros is the measured service
// time; ModelLatencySeconds is the paper's modeled startup latency (zero on
// hits).
type RequestLogEntry struct {
	Tick                int64        `json:"tick"`
	WallMicros          int64        `json:"wallMicros"`
	Client              string       `json:"client,omitempty"`
	Clip                media.ClipID `json:"clip"`
	SizeBytes           int64        `json:"sizeBytes,omitempty"`
	StartBytes          int64        `json:"startBytes,omitempty"`
	LengthBytes         int64        `json:"lengthBytes,omitempty"`
	Policy              string       `json:"policy,omitempty"`
	Outcome             string       `json:"outcome"`
	Hit                 bool         `json:"hit"`
	Status              int          `json:"status"`
	LatencyMicros       int64        `json:"latencyMicros"`
	ModelLatencySeconds float64      `json:"modelLatencySeconds,omitempty"`
	Peer                string       `json:"peer,omitempty"`
}

// ResidentClip is one entry of the detailed GET /v1/resident listing.
type ResidentClip struct {
	ID        media.ClipID `json:"id"`
	Kind      string       `json:"kind"`
	SizeBytes int64        `json:"sizeBytes"`
}

// Resident is the response of GET /v1/resident (default, detailed format).
// Total is the full resident count; Clips is the requested page.
type Resident struct {
	Clips     []ResidentClip `json:"clips"`
	Total     int            `json:"total"`
	Offset    int            `json:"offset"`
	Limit     int            `json:"limit,omitempty"`
	UsedBytes int64          `json:"usedBytes"`
	FreeBytes int64          `json:"freeBytes"`
}

// ResidentIDs is the bare-ID shape served under GET /v1/resident?format=ids
// — the pre-pagination wire format, kept for existing clients.
type ResidentIDs struct {
	Clips     []media.ClipID `json:"clips"`
	UsedBytes int64          `json:"usedBytes"`
	FreeBytes int64          `json:"freeBytes"`
}

// ResidentExtent is one contiguous resident byte run of a clip.
type ResidentExtent struct {
	OffsetBytes int64 `json:"offsetBytes"`
	LengthBytes int64 `json:"lengthBytes"`
}

// ClipExtents is one entry of GET /v1/resident?format=extents: a resident
// clip's cached byte runs. A fully resident clip has one extent covering the
// whole clip.
type ClipExtents struct {
	ID            media.ClipID     `json:"id"`
	SizeBytes     int64            `json:"sizeBytes"`
	BytesResident int64            `json:"bytesResident"`
	Extents       []ResidentExtent `json:"extents"`
}

// ResidentExtents is the response of GET /v1/resident?format=extents —
// the segment-aware residency listing. Unsegmented servers serve it too;
// every clip is then a single full extent.
type ResidentExtents struct {
	Clips            []ClipExtents `json:"clips"`
	Total            int           `json:"total"`
	Offset           int           `json:"offset"`
	Limit            int           `json:"limit,omitempty"`
	SegmentSizeBytes int64         `json:"segmentSizeBytes,omitempty"`
	UsedBytes        int64         `json:"usedBytes"`
	FreeBytes        int64         `json:"freeBytes"`
}

// Policies is the response of GET /v1/policies.
type Policies struct {
	Current  string   `json:"current"`
	Policies []string `json:"policies"`
}

// Shard describes one cache shard in the GET /v1/shards listing.
// ResidentSegments appears only on segmented servers.
type Shard struct {
	Shard            int     `json:"shard"`
	Requests         uint64  `json:"requests"`
	Hits             uint64  `json:"hits"`
	HitRate          float64 `json:"hitRate"`
	ResidentClips    int     `json:"residentClips"`
	ResidentSegments int     `json:"residentSegments,omitempty"`
	UsedBytes        int64   `json:"usedBytes"`
	CapacityBytes    int64   `json:"capacityBytes"`
}

// Shards is the response of GET /v1/shards: the hash-partitioned pool's
// per-shard occupancy and hit statistics, in shard-index order.
type Shards struct {
	Shards []Shard `json:"shards"`
}

// Health is the response of GET /v1/healthz.
type Health struct {
	Status        string `json:"status"`
	ResidentClips int    `json:"residentClips"`
	UsedBytes     int64  `json:"usedBytes"`
	CapacityBytes int64  `json:"capacityBytes"`
}

// BuildVersion is the response of GET /v1/version.
type BuildVersion struct {
	API        string `json:"api"`
	GoVersion  string `json:"goVersion"`
	Policy     string `json:"policy"`
	PolicySpec string `json:"policySpec"`
	Module     string `json:"module,omitempty"`
	Revision   string `json:"revision,omitempty"`
}

// ClusterClip is the response of GET /v1/cluster/clips/{id} — the
// peer-serve route of the cooperative tier. A node answers 200 only when
// the clip is fully resident locally, 404 otherwise; a partial resident is
// not a copy. Serving a peer does not touch the serving node's cache or
// its statistics — like internal/coop, a device's policy sees only its own
// clients' references.
type ClusterClip struct {
	Clip      media.ClipID `json:"clip"`
	Node      string       `json:"node"`
	SizeBytes int64        `json:"sizeBytes"`
}

// ClusterDigest is the response of GET /v1/cluster/digest: a compact
// residency summary peers cache between refreshes, so most peer probes are
// answered locally from the digest rather than over the network. Clips
// lists only FULLY resident clips — partial residents cannot serve a peer
// read. PartialClips reports how many residents were excluded for being
// partial (segmented nodes only).
type ClusterDigest struct {
	Node             string         `json:"node"`
	Seq              uint64         `json:"seq"`
	Clips            []media.ClipID `json:"clips"`
	UsedBytes        int64          `json:"usedBytes"`
	SegmentSizeBytes int64          `json:"segmentSizeBytes,omitempty"`
	PartialClips     int            `json:"partialClips,omitempty"`
}

// ClusterPeer describes one configured peer in the GET /v1/cluster status,
// including the freshness of its last digest (ages are relative to the
// serving node's wall clock).
type ClusterPeer struct {
	ID               string  `json:"id"`
	URL              string  `json:"url"`
	Breaker          string  `json:"breaker"`
	DigestSeq        uint64  `json:"digestSeq,omitempty"`
	DigestClips      int     `json:"digestClips,omitempty"`
	DigestAgeSeconds float64 `json:"digestAgeSeconds,omitempty"`
	DigestFresh      bool    `json:"digestFresh,omitempty"`
}

// ClusterStatus is the response of GET /v1/cluster: ring membership plus
// the node's cooperative counters.
type ClusterStatus struct {
	Node            string        `json:"node"`
	Replicas        int           `json:"replicas"`
	Peers           []ClusterPeer `json:"peers"`
	PeerHits        uint64        `json:"peerHits"`
	PeerMisses      uint64        `json:"peerMisses"`
	PeerErrors      uint64        `json:"peerErrors"`
	Hedges          uint64        `json:"hedges"`
	HedgeWins       uint64        `json:"hedgeWins"`
	DigestSkips     uint64        `json:"digestSkips"`
	DigestRefreshes uint64        `json:"digestRefreshes"`
	DigestErrors    uint64        `json:"digestErrors"`
	PeerServed      uint64        `json:"peerServed"`
	PeerServedBytes int64         `json:"peerServedBytes"`
}
