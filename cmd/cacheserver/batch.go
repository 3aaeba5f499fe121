package main

// batch.go services POST /v1/batch: an ordered list of clip references
// submitted as one body and serviced through the item core (item.go) as
// one pool RequestBatch, which groups items by owning shard and amortizes
// engine-lock acquisitions across the group. Per-item semantics are the
// single-clip route's — the same statuses, outcomes, peers and modeled
// latencies an equivalent sequence of GET /v1/clips/{id} calls would have
// produced — so clients can switch between the forms freely.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"mediacache/internal/api"
	"mediacache/internal/fault"
	"mediacache/internal/media"
)

const (
	// maxBatchItems bounds one batch. Bigger batches amortize no better and
	// hold their per-shard groups pinned longer; clients should split.
	maxBatchItems = 1024
	// maxBatchBody bounds the request body (a full 1024-item batch with
	// ranges is under 64 KiB).
	maxBatchBody = 1 << 20
)

// handleBatch services POST /v1/batch.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	batchStart := time.Now()
	var req api.BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad batch body: %v", err)
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Items) > maxBatchItems {
		writeError(w, http.StatusBadRequest,
			"batch of %d items exceeds the %d-item bound", len(req.Items), maxBatchItems)
		return
	}

	resp := api.BatchResponse{Items: make([]api.BatchItemResult, len(req.Items))}
	// Pre-screen every item: unknown clips and injected faults resolve
	// without touching the cache (a faulted transfer fails before the clip
	// materializes, exactly as on the single-clip route). Survivors go
	// through the item core; back maps them to their response slots.
	refs := make([]clipRef, 0, len(req.Items))
	back := make([]int, 0, len(req.Items))
	var stall time.Duration
	for i := range req.Items {
		it := &req.Items[i]
		res := &resp.Items[i]
		res.Clip = it.Clip
		clip, ok := s.pool.Repository().Lookup(it.Clip)
		if !ok {
			res.Status = http.StatusNotFound
			res.Error = fmt.Sprintf("clip %d not in repository", it.Clip)
			continue
		}
		if s.chaos != nil {
			// Item transfers proceed concurrently, so the batch stalls for
			// the slowest injected delay rather than their sum.
			d, failed := s.chaos.drawItem(res)
			if d > stall {
				stall = d
			}
			if failed {
				continue
			}
		}
		ref := clipRef{clip: clip}
		if it.StartBytes != nil || it.LengthBytes != nil {
			ref.ranged, ref.rng.length = true, -1
			if it.StartBytes != nil {
				ref.rng.start = media.Bytes(*it.StartBytes)
			}
			if it.LengthBytes != nil {
				ref.rng.length = media.Bytes(*it.LengthBytes)
			}
			if ref.rng.start < 0 || ref.rng.start >= clip.Size {
				res.Status = http.StatusRequestedRangeNotSatisfiable
				res.Error = fmt.Sprintf("start %d outside clip of %d bytes", ref.rng.start, clip.Size)
				continue
			}
		}
		refs = append(refs, ref)
		back = append(back, i)
	}
	if stall > 0 {
		time.Sleep(stall)
	}

	s.serveRefs(r, refs, true, batchStart)
	for k := range refs {
		ref := &refs[k]
		res := &resp.Items[back[k]]
		res.Status = ref.status
		if ref.err != nil {
			res.Error = ref.err.Error()
			continue
		}
		res.Outcome = ref.res.Outcome.String()
		res.Hit = ref.res.Outcome.IsHit()
		res.SizeBytes = int64(ref.clip.Size)
		res.LatencySeconds = ref.latency
		res.Range = ref.rangeInfo()
		res.Peer = ref.peer
	}
	resp.Shed = s.shed.saturated() || s.guard.degradedNow()
	writeJSON(w, resp)
}

// drawItem draws the next scheduled fault for one batch item. A failed draw
// resolves the item with the status its single-request form would have
// received and reports failed=true; the item never reaches the cache. The
// returned delay is the item's injected stall — the scheduled latency, plus
// the profile's hold for a timeout fault (a stalled transfer runs to its
// deadline), exactly what the single-clip route would have slept.
func (c *chaos) drawItem(res *api.BatchItemResult) (delay time.Duration, failed bool) {
	f := c.draw()
	delay = f.Latency
	if !f.Failed() {
		return delay, false
	}
	c.injected[f.Kind].Inc()
	switch f.Kind {
	case fault.Error:
		res.Status = http.StatusBadGateway
		res.Error = "injected link error fetching clip"
	case fault.Timeout:
		delay += c.inj.Profile().HoldOrDefault()
		res.Status = http.StatusGatewayTimeout
		res.Error = "injected link stall fetching clip"
	case fault.Partial:
		res.Status = http.StatusBadGateway
		res.Error = fmt.Sprintf("injected partial delivery (%.0f%% of clip) fetching clip", f.Fraction*100)
	}
	return delay, true
}
