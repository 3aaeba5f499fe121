package main

// item.go is the item core behind every clip route. GET /v1/clips/{id}
// (whole or ranged) and each item of POST /v1/batch parse into a clipRef,
// serveRefs services the refs and applies, once per reference, what the
// routes share — peer consult, the prefix-aware startup-latency rule and
// the request-log entry — and each route encodes the result in its own wire
// shape (api.Clip with segment/TTL decoration via clipResponse, or
// api.BatchItemResult).

import (
	"net/http"
	"time"

	"mediacache/internal/api"
	"mediacache/internal/media"
	"mediacache/internal/netsim"
	"mediacache/internal/shard"
)

// clipRef is one clip reference on its way through the item core.
type clipRef struct {
	clip media.Clip
	// ranged selects bytes [rng.start, rng.start+rng.length) of the clip
	// (a negative length runs to the end); unranged references the whole
	// clip, the range [0, size).
	ranged bool
	rng    byteRange

	// Set by serveRefs.
	res     shard.BatchResult // the pool's outcome
	status  int               // 200, 206, or 500 with err set
	peer    string            // ring owner that served the miss
	latency float64           // modeled startup latency, seconds
	err     error
}

// item is the reference in the pool's request form. On segmented pools an
// unranged reference goes to the pool as the range [0, size), so the engine
// reports whether its first byte was cached; on whole-clip pools it stays a
// whole-clip request, eligible for the lock-free hit path.
func (ref *clipRef) item(segmented bool) shard.BatchItem {
	switch {
	case ref.ranged:
		return shard.BatchItem{ID: ref.clip.ID, Ranged: true, Start: ref.rng.start, Length: ref.rng.length}
	case segmented:
		return shard.BatchItem{ID: ref.clip.ID, Ranged: true, Length: -1}
	}
	return shard.BatchItem{ID: ref.clip.ID}
}

// rangeInfo is the byte accounting of a serviced ranged reference; nil for
// whole-clip references, whose wire shapes carry no range.
func (ref *clipRef) rangeInfo() *api.RangeInfo {
	if !ref.ranged {
		return nil
	}
	rr := &ref.res.Range
	return &api.RangeInfo{
		StartBytes:   int64(rr.Start),
		LengthBytes:  int64(rr.Length),
		BytesHit:     int64(rr.BytesHit),
		BytesFetched: int64(rr.BytesFetched),
		BytesFailed:  int64(rr.BytesFailed),
	}
}

// serveRefs services refs through the pool — one RequestBatch when batch is
// set, else the single reference through Request or RequestRange — and
// settles each reference's peer, status, startup latency and log entry.
// start is when the route began, so logged service times include parsing;
// batch items, whose transfers proceed concurrently, are each charged the
// elapsed batch time.
//
// The startup rule: a miss waits for the link unless its first byte was
// served from cache (a resident prefix starts the stream at once), and a
// miss a ring owner served is charged at the peer-link bandwidth.
func (s *server) serveRefs(r *http.Request, refs []clipRef, batch bool, start time.Time) {
	for i := range refs {
		// Consulted before the pool books the reference: a peer win only
		// changes which link a miss is charged to.
		refs[i].peer = s.consultPeers(r, refs[i].clip)
	}
	segmented := s.pool.SegmentSize() > 0
	if batch {
		items := make([]shard.BatchItem, len(refs))
		for i := range refs {
			items[i] = refs[i].item(segmented)
		}
		for i, res := range s.pool.RequestBatch(items) {
			refs[i].res = res
		}
	} else if it := refs[0].item(segmented); it.Ranged {
		res, err := s.pool.RequestRange(it.ID, it.Start, it.Length)
		refs[0].res = shard.BatchResult{Outcome: res.Outcome, Range: res, Err: err}
	} else {
		out, err := s.pool.Request(it.ID)
		refs[0].res = shard.BatchResult{Outcome: out, Err: err}
	}
	for i := range refs {
		ref := &refs[i]
		if ref.err = ref.res.Err; ref.err != nil {
			ref.status = http.StatusInternalServerError
			continue
		}
		hit := ref.res.Outcome.IsHit()
		ref.status = http.StatusOK
		if ref.ranged && !(hit && ref.res.Range.Start == 0 && ref.res.Range.Length == ref.clip.Size) {
			// Only a fully resident whole-clip range answers a plain 200.
			ref.status = http.StatusPartialContent
		}
		if hit {
			ref.peer = ""
		} else if !ref.res.Range.FirstByteHit {
			alloc := s.alloc
			if ref.peer != "" {
				alloc = s.peerAlloc
			}
			lat, err := netsim.StartupLatency(ref.clip, alloc, s.admission)
			if err != nil {
				ref.status, ref.err = http.StatusInternalServerError, err
				continue
			}
			ref.latency = float64(lat)
		}
	}
	s.logRefs(r, refs, start)
}

// clipResponse is a serviced reference as the GET /v1/clips/{id} body. The
// segment fields appear only on segmented servers and the expiry tick only
// on TTL servers for resident clips, so responses of servers without them
// stay byte-identical to pre-segment, pre-churn ones.
func (s *server) clipResponse(ref *clipRef) api.Clip {
	resp := api.Clip{
		Clip:           ref.clip.ID,
		Kind:           ref.clip.Kind.String(),
		SizeBytes:      int64(ref.clip.Size),
		Outcome:        ref.res.Outcome.String(),
		Hit:            ref.res.Outcome.IsHit(),
		LatencySeconds: ref.latency,
		Range:          ref.rangeInfo(),
		Peer:           ref.peer,
	}
	if info := s.segmentInfo(ref.clip); info != nil {
		resp.Segments = info
		resp.BytesResident = int64(s.pool.ResidentBytes(ref.clip.ID))
		resp.PrefixSegments = s.pool.PrefixSegments()
	}
	if s.pool.TTL() > 0 {
		resp.ExpiresAtTick = int64(s.pool.DeadlineOf(ref.clip.ID))
	}
	return resp
}
