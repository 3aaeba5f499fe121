package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"mediacache/internal/api"
	"mediacache/internal/media"
)

// postBatch submits a batch body and decodes the response envelope.
func postBatch(t *testing.T, url string, req api.BatchRequest) (*http.Response, api.BatchResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out api.BatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

// TestBatchMatchesSingleRoute proves the batch route's per-item results are
// exactly what the same sequence of single-clip GETs produces on a twin
// server: same statuses, outcomes, latencies, ranges and final stats — on
// the default server with whole-clip items, and on a segmented, prefix-
// pinned TTL server with ranged and whole-clip items mixed, where the
// prefix-aware startup rule and expiry both come into play.
func TestBatchMatchesSingleRoute(t *testing.T) {
	r := func(id media.ClipID, start, length int64) api.BatchItem {
		return api.BatchItem{Clip: id, StartBytes: &start, LengthBytes: &length}
	}
	w := func(id media.ClipID) api.BatchItem { return api.BatchItem{Clip: id} }
	prefix := int64(512 * media.MB)
	segTTL := testSegConfig()
	segTTL.ttl = 12
	for _, tc := range []struct {
		name  string
		cfg   config
		items []api.BatchItem
	}{
		{"default", testConfig(), []api.BatchItem{
			w(1), w(2), w(3), w(1), w(2), w(4), w(1), w(5), w(2), w(3), w(1), w(6), w(7), w(1), w(2),
		}},
		{"segmented-prefix-ttl", segTTL, []api.BatchItem{
			r(3, 0, prefix), w(3), r(1, 0, prefix), r(1, 0, -1), w(2),
			r(2, prefix, -1), r(4, 0, 100*int64(media.MB)), w(4), r(3, 0, -1), w(1),
			r(5, 0, prefix), r(5, 3*prefix/2, prefix), w(5), r(6, 0, prefix), w(3),
			w(6), r(2, 0, prefix), w(7), r(7, 0, -1), w(1),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, batchTS := newTestServerConfig(t, tc.cfg)
			_, singleTS := newTestServerConfig(t, tc.cfg)
			prefixStarts := 0 // misses whose cached prefix started them at once
			const batchLen = 5
			for off := 0; off < len(tc.items); off += batchLen {
				chunk := tc.items[off : off+batchLen]
				resp, out := postBatch(t, batchTS.URL, api.BatchRequest{Items: chunk})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("batch status %d", resp.StatusCode)
				}
				if len(out.Items) != len(chunk) {
					t.Fatalf("batch returned %d items, want %d", len(out.Items), len(chunk))
				}
				for k, item := range chunk {
					var hdr string
					if item.StartBytes != nil {
						hdr = fmt.Sprintf("bytes=%d-", *item.StartBytes)
						if n := *item.LengthBytes; n >= 0 {
							hdr += fmt.Sprint(*item.StartBytes + n - 1)
						}
					}
					var single api.Clip
					sresp := getRange(t, fmt.Sprintf("%s/v1/clips/%d", singleTS.URL, item.Clip), hdr, nil, &single)
					it := out.Items[k]
					if it.Clip != item.Clip || it.Status != sresp.StatusCode {
						t.Fatalf("item %d: clip %d status %d, single status %d", off+k, it.Clip, it.Status, sresp.StatusCode)
					}
					if it.Outcome != single.Outcome || it.Hit != single.Hit {
						t.Fatalf("item %d (clip %d): batch %s/%v, single %s/%v",
							off+k, item.Clip, it.Outcome, it.Hit, single.Outcome, single.Hit)
					}
					if it.SizeBytes != single.SizeBytes || it.LatencySeconds != single.LatencySeconds {
						t.Fatalf("item %d (clip %d): batch size=%d lat=%v, single size=%d lat=%v",
							off+k, item.Clip, it.SizeBytes, it.LatencySeconds, single.SizeBytes, single.LatencySeconds)
					}
					if (it.Range == nil) != (single.Range == nil) || it.Range != nil && *it.Range != *single.Range {
						t.Fatalf("item %d (clip %d): batch range %+v, single %+v", off+k, item.Clip, it.Range, single.Range)
					}
					if !it.Hit && it.LatencySeconds == 0 {
						prefixStarts++
					}
				}
			}

			var bst, sst api.Stats
			getJSON(t, batchTS.URL+"/v1/stats", &bst)
			getJSON(t, singleTS.URL+"/v1/stats", &sst)
			if bst != sst {
				t.Fatalf("stats diverged:\nbatch  %+v\nsingle %+v", bst, sst)
			}
			if tc.cfg.segmentSize > 0 && (prefixStarts == 0 || bst.Expired == 0) {
				t.Fatalf("trace too tame: %d prefix-started misses, %d expiries", prefixStarts, bst.Expired)
			}
		})
	}
}

// TestBatchRangedItems drives partial-content items through the batch route
// on a segmented server and checks the range accounting round-trips.
func TestBatchRangedItems(t *testing.T) {
	cfg := testConfig()
	cfg.segmentSize = 256 * media.MB
	cfg.prefixSegments = 1
	_, ts := newTestServerConfig(t, cfg)

	start, length := int64(0), int64(-1)
	mid := int64(512 * media.MB)
	req := api.BatchRequest{Items: []api.BatchItem{
		{Clip: 1, StartBytes: &start, LengthBytes: &length}, // whole clip, ranged form
		{Clip: 1, StartBytes: &mid},                         // open tail
		{Clip: 2},                                           // whole-clip form
	}}
	resp, out := postBatch(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for k, it := range out.Items[:2] {
		if it.Status != http.StatusOK && it.Status != http.StatusPartialContent {
			t.Fatalf("item %d: status %d (%s)", k, it.Status, it.Error)
		}
		if it.Range == nil {
			t.Fatalf("item %d: ranged item carries no range info", k)
		}
		if got := it.Range.BytesHit + it.Range.BytesFetched + it.Range.BytesFailed; got != it.Range.LengthBytes {
			t.Fatalf("item %d: range bytes %d do not cover length %d", k, got, it.Range.LengthBytes)
		}
	}
	if out.Items[2].Range != nil {
		t.Fatal("whole-clip item carries range info")
	}

	// Out-of-clip start resolves per item, not per batch.
	huge := int64(1 << 60)
	_, out = postBatch(t, ts.URL, api.BatchRequest{Items: []api.BatchItem{
		{Clip: 1, StartBytes: &huge},
		{Clip: 1},
	}})
	if out.Items[0].Status != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("out-of-clip start: status %d", out.Items[0].Status)
	}
	if out.Items[1].Status != http.StatusOK {
		t.Fatalf("sibling item: status %d", out.Items[1].Status)
	}
}

// TestBatchItemErrors pins the per-item and whole-batch error envelopes.
func TestBatchItemErrors(t *testing.T) {
	_, ts := newTestServer(t)

	// Unknown clips 404 per item; the batch itself succeeds.
	resp, out := postBatch(t, ts.URL, api.BatchRequest{Items: []api.BatchItem{
		{Clip: 999999}, {Clip: 1},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Items[0].Status != http.StatusNotFound || out.Items[0].Error == "" {
		t.Fatalf("unknown clip: %+v", out.Items[0])
	}
	if out.Items[1].Status != http.StatusOK {
		t.Fatalf("known clip alongside unknown: %+v", out.Items[1])
	}
	if out.Shed {
		t.Fatal("unloaded server reported shed")
	}

	// Empty and oversized batches are whole-request errors.
	if resp, _ := postBatch(t, ts.URL, api.BatchRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", resp.StatusCode)
	}
	big := api.BatchRequest{Items: make([]api.BatchItem, maxBatchItems+1)}
	for i := range big.Items {
		big.Items[i].Clip = 1
	}
	if resp, _ := postBatch(t, ts.URL, big); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d", resp.StatusCode)
	}
	malformed, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	malformed.Body.Close()
	if malformed.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", malformed.StatusCode)
	}
}
