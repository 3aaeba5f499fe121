package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"mediacache/internal/api"
	"mediacache/internal/media"
)

// testSegConfig is the segmented counterpart of testConfig: 256 MB segments,
// a two-segment pinned prefix, and a cache large enough to hold the 1.8 GB
// clip the segmented tests stream.
func testSegConfig() config {
	cfg := testConfig()
	cfg.ratio = 0.5
	cfg.segmentSize = 256 * media.MB
	cfg.prefixSegments = 2
	return cfg
}

// getRange issues a GET with the given Range header (and optional extra
// headers) and returns the response with its body decoded into clip.
func getRange(t *testing.T, url, rangeHdr string, extra map[string]string, clip *api.Clip) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rangeHdr != "" {
		req.Header.Set("Range", rangeHdr)
	}
	for k, v := range extra {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if clip != nil && (resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusPartialContent) {
		decodeJSON(t, body, clip)
	}
	return resp
}

func decodeJSON(t *testing.T, body []byte, v interface{}) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decode %s: %v", body, err)
	}
}

// TestRangePartialContent pins the 206 contract on the whole-clip engine: a
// sub-clip range answers 206 with Content-Range, Accept-Ranges and the
// range accounting in the body, on both the miss and the hit path.
func TestRangePartialContent(t *testing.T) {
	_, ts := newTestServer(t)
	url := ts.URL + "/v1/clips/2"

	var clip api.Clip
	resp := getRange(t, url, "bytes=0-999", nil, &clip)
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("cold ranged GET status = %d, want 206", resp.StatusCode)
	}
	size := clip.SizeBytes
	wantCR := "bytes 0-999/" + strconv.FormatInt(size, 10)
	if cr := resp.Header.Get("Content-Range"); cr != wantCR {
		t.Errorf("Content-Range = %q, want %q", cr, wantCR)
	}
	if ar := resp.Header.Get("Accept-Ranges"); ar != "bytes" {
		t.Errorf("Accept-Ranges = %q, want bytes", ar)
	}
	if clip.Range == nil {
		t.Fatal("206 body carries no range accounting")
	}
	if clip.Range.StartBytes != 0 || clip.Range.LengthBytes != 1000 {
		t.Errorf("range = [%d,+%d), want [0,+1000)", clip.Range.StartBytes, clip.Range.LengthBytes)
	}
	if clip.Hit || clip.Range.BytesFetched != 1000 {
		t.Errorf("cold range = %+v, want 1000 fetched bytes", clip.Range)
	}

	// The whole clip is now resident: the same range is a pure hit but
	// still answers 206 because it does not span the clip.
	clip = api.Clip{}
	resp = getRange(t, url, "bytes=0-999", nil, &clip)
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("warm ranged GET status = %d, want 206", resp.StatusCode)
	}
	if !clip.Hit || clip.Range.BytesHit != 1000 {
		t.Errorf("warm range = %+v, want 1000 hit bytes", clip.Range)
	}
	if clip.LatencySeconds != 0 {
		t.Errorf("warm range latency = %v, want 0", clip.LatencySeconds)
	}

	// A resident whole-clip range takes the 200 fast path, like an
	// unranged GET.
	resp = getRange(t, url, "bytes=0-", nil, &clip)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("resident bytes=0- status = %d, want 200", resp.StatusCode)
	}
	if cr := resp.Header.Get("Content-Range"); cr != "" {
		t.Errorf("200 fast path carries Content-Range %q", cr)
	}
}

// TestRangeSuffixAndClamp covers the suffix ("-n") and clamped ("a-huge")
// forms.
func TestRangeSuffixAndClamp(t *testing.T) {
	_, ts := newTestServer(t)
	url := ts.URL + "/v1/clips/2"
	var clip api.Clip
	getJSON(t, url, &clip) // make the clip resident
	size := clip.SizeBytes

	resp := getRange(t, url, "bytes=-500", nil, &clip)
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("suffix range status = %d, want 206", resp.StatusCode)
	}
	if clip.Range.StartBytes != size-500 || clip.Range.LengthBytes != 500 {
		t.Errorf("suffix range = [%d,+%d), want the final 500 bytes of %d",
			clip.Range.StartBytes, clip.Range.LengthBytes, size)
	}

	resp = getRange(t, url, "bytes=100-999999999999", nil, &clip)
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("clamped range status = %d, want 206", resp.StatusCode)
	}
	if clip.Range.StartBytes != 100 || clip.Range.LengthBytes != size-100 {
		t.Errorf("clamped range = [%d,+%d), want [100,+%d)",
			clip.Range.StartBytes, clip.Range.LengthBytes, size-100)
	}
	wantCR := "bytes 100-" + strconv.FormatInt(size-1, 10) + "/" + strconv.FormatInt(size, 10)
	if cr := resp.Header.Get("Content-Range"); cr != wantCR {
		t.Errorf("Content-Range = %q, want %q", cr, wantCR)
	}
}

// TestRangeUnsatisfiable pins the 416 contract: start at or past the end,
// the empty suffix "-0", and multi-range requests all answer 416 with the
// unsatisfied-range form of Content-Range and no cache traffic.
func TestRangeUnsatisfiable(t *testing.T) {
	srv, ts := newTestServer(t)
	url := ts.URL + "/v1/clips/2"
	var clip api.Clip
	getJSON(t, url, &clip)
	size := clip.SizeBytes
	before := srv.pool.Stats().Requests

	for _, hdr := range []string{
		"bytes=" + strconv.FormatInt(size, 10) + "-",
		"bytes=999999999999-",
		"bytes=-0",
		"bytes=0-99,200-299",
	} {
		resp := getRange(t, url, hdr, nil, nil)
		if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
			t.Errorf("Range %q status = %d, want 416", hdr, resp.StatusCode)
		}
		wantCR := "bytes */" + strconv.FormatInt(size, 10)
		if cr := resp.Header.Get("Content-Range"); cr != wantCR {
			t.Errorf("Range %q Content-Range = %q, want %q", hdr, cr, wantCR)
		}
	}
	if after := srv.pool.Stats().Requests; after != before {
		t.Errorf("416 responses reached the cache: %d extra requests", after-before)
	}
}

// TestRangeIgnored covers the headers RFC 9110 lets a server ignore: other
// units, malformed specs, and any Range alongside If-Range (the validator is
// unverifiable here, so the full clip is served with 200).
func TestRangeIgnored(t *testing.T) {
	_, ts := newTestServer(t)
	url := ts.URL + "/v1/clips/2"
	for _, tc := range []struct {
		rangeHdr string
		extra    map[string]string
	}{
		{rangeHdr: "items=0-5"},
		{rangeHdr: "bytes=abc-def"},
		{rangeHdr: "bytes=5"},
		{rangeHdr: "bytes=9-5"},
		{rangeHdr: "bytes=0-99", extra: map[string]string{"If-Range": `"v1"`}},
	} {
		var clip api.Clip
		resp := getRange(t, url, tc.rangeHdr, tc.extra, &clip)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("Range %q (extra %v) status = %d, want 200", tc.rangeHdr, tc.extra, resp.StatusCode)
		}
		if clip.Range != nil {
			t.Errorf("Range %q: ignored header produced range accounting %+v", tc.rangeHdr, clip.Range)
		}
		if cr := resp.Header.Get("Content-Range"); cr != "" {
			t.Errorf("Range %q: ignored header produced Content-Range %q", tc.rangeHdr, cr)
		}
	}
}

// TestHeadClip pins the HEAD contract: size and residency headers without
// touching the cache.
func TestHeadClip(t *testing.T) {
	srv, ts := newTestServer(t)
	url := ts.URL + "/v1/clips/2"

	resp, err := http.Head(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD status = %d", resp.StatusCode)
	}
	if ar := resp.Header.Get("Accept-Ranges"); ar != "bytes" {
		t.Errorf("HEAD Accept-Ranges = %q, want bytes", ar)
	}
	if rb := resp.Header.Get("X-Cache-Resident-Bytes"); rb != "0" {
		t.Errorf("cold HEAD X-Cache-Resident-Bytes = %q, want 0", rb)
	}
	var clip api.Clip
	getJSON(t, url, &clip)
	size := strconv.FormatInt(clip.SizeBytes, 10)

	resp, err = http.Head(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cl := resp.Header.Get("Content-Length"); cl != size {
		t.Errorf("HEAD Content-Length = %q, want %q", cl, size)
	}
	if rb := resp.Header.Get("X-Cache-Resident-Bytes"); rb != size {
		t.Errorf("warm HEAD X-Cache-Resident-Bytes = %q, want %q", rb, size)
	}
	if got := srv.pool.Stats().Requests; got != 1 {
		t.Errorf("HEAD reached the cache: %d requests, want 1 (the GET)", got)
	}

	resp, err = http.Head(ts.URL + "/v1/clips/99999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("HEAD unknown clip status = %d, want 404", resp.StatusCode)
	}
}

// TestResidentExtentsFormat checks GET /v1/resident?format=extents on the
// whole-clip engine: one extent spanning each resident clip.
func TestResidentExtentsFormat(t *testing.T) {
	_, ts := newTestServer(t)
	var clip api.Clip
	getJSON(t, ts.URL+"/v1/clips/2", &clip)

	var ext api.ResidentExtents
	if resp := getJSON(t, ts.URL+"/v1/resident?format=extents", &ext); resp.StatusCode != http.StatusOK {
		t.Fatalf("format=extents status = %d", resp.StatusCode)
	}
	if ext.Total != 1 || len(ext.Clips) != 1 {
		t.Fatalf("extents = %+v, want 1 clip", ext)
	}
	got := ext.Clips[0]
	if got.ID != 2 || got.BytesResident != clip.SizeBytes {
		t.Errorf("clip extents = %+v, want clip 2 fully resident", got)
	}
	if len(got.Extents) != 1 || got.Extents[0].OffsetBytes != 0 || got.Extents[0].LengthBytes != clip.SizeBytes {
		t.Errorf("extents of clip 2 = %+v, want one extent spanning the clip", got.Extents)
	}
	if ext.UsedBytes != clip.SizeBytes {
		t.Errorf("usedBytes = %d, want %d", ext.UsedBytes, clip.SizeBytes)
	}
	if ext.SegmentSizeBytes != 0 {
		t.Errorf("unsegmented extents reports segmentSizeBytes = %d", ext.SegmentSizeBytes)
	}
}

// TestSegmentedPrefixRangeServing drives the acceptance scenario end to
// end on a segmented server: warm the pinned prefix of a cold clip, then
// stream it from byte 0 — the first bytes come from cache (zero startup
// latency, resident bytes visible in X-Cache-Resident-Bytes) while the
// tail fetches per segment.
func TestSegmentedPrefixRangeServing(t *testing.T) {
	srv, ts := newTestServerConfig(t, testSegConfig())
	url := ts.URL + "/v1/clips/3"
	segSize := int64(256 * media.MB)
	prefixBytes := 2 * segSize

	// Warm exactly the two pinned prefix segments.
	var clip api.Clip
	resp := getRange(t, url, "bytes=0-"+strconv.FormatInt(prefixBytes-1, 10), nil, &clip)
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("prefix warm status = %d, want 206", resp.StatusCode)
	}
	if clip.Range.BytesFetched != prefixBytes {
		t.Fatalf("prefix warm fetched %d bytes, want %d", clip.Range.BytesFetched, prefixBytes)
	}
	if rb := resp.Header.Get("X-Cache-Resident-Bytes"); rb != strconv.FormatInt(prefixBytes, 10) {
		t.Fatalf("X-Cache-Resident-Bytes after prefix warm = %q, want %d", rb, prefixBytes)
	}

	// An unranged GET is the range [0, size): with the prefix of clip 1
	// warmed the same way, its startup latency is zero too.
	url1 := ts.URL + "/v1/clips/1"
	if resp := getRange(t, url1, "bytes=0-"+strconv.FormatInt(prefixBytes-1, 10), nil, nil); resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("clip 1 prefix warm status = %d, want 206", resp.StatusCode)
	}
	var whole api.Clip
	if resp := getRange(t, url1, "", nil, &whole); resp.StatusCode != http.StatusOK {
		t.Fatalf("unranged prefix-resident GET status = %d, want 200", resp.StatusCode)
	}
	if whole.Hit || whole.LatencySeconds != 0 {
		t.Errorf("unranged prefix-resident GET = hit=%v latency=%v, want a miss with zero latency",
			whole.Hit, whole.LatencySeconds)
	}

	// Stream the whole clip from byte 0: the prefix is served from cache,
	// so the modeled startup latency is zero even though the tail misses.
	clip = api.Clip{}
	resp = getRange(t, url, "bytes=0-", nil, &clip)
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("prefix-resident stream status = %d, want 206 (tail missed)", resp.StatusCode)
	}
	if clip.Hit {
		t.Error("stream with a missing tail reported a full hit")
	}
	if clip.LatencySeconds != 0 {
		t.Errorf("prefix-resident stream latency = %v, want 0", clip.LatencySeconds)
	}
	if clip.Range.BytesHit != prefixBytes {
		t.Errorf("stream hit %d bytes from cache, want the %d-byte prefix", clip.Range.BytesHit, prefixBytes)
	}
	if clip.Range.BytesHit+clip.Range.BytesFetched+clip.Range.BytesFailed != clip.SizeBytes {
		t.Errorf("stream bytes %d+%d+%d do not cover the clip (%d)",
			clip.Range.BytesHit, clip.Range.BytesFetched, clip.Range.BytesFailed, clip.SizeBytes)
	}
	if clip.Segments == nil {
		t.Fatal("segmented response carries no segment info")
	}
	if clip.Segments.SizeBytes != segSize || clip.PrefixSegments != 2 {
		t.Errorf("segment info = %+v prefix %d, want size %d prefix 2",
			clip.Segments, clip.PrefixSegments, segSize)
	}
	if clip.Segments.Resident != clip.Segments.Total {
		t.Errorf("after streaming, %d/%d segments resident", clip.Segments.Resident, clip.Segments.Total)
	}
	if clip.BytesResident != clip.SizeBytes {
		t.Errorf("bytesResident = %d, want %d", clip.BytesResident, clip.SizeBytes)
	}

	// Fully resident now: a whole-clip range takes the 200 fast path.
	resp = getRange(t, url, "bytes=0-", nil, &clip)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("fully resident stream status = %d, want 200", resp.StatusCode)
	}
	if !clip.Hit || clip.LatencySeconds != 0 {
		t.Errorf("fully resident stream = hit=%v latency=%v, want hit with zero latency", clip.Hit, clip.LatencySeconds)
	}

	st := srv.pool.Stats()
	if st.PartialHits == 0 {
		t.Error("prefix-resident stream recorded no partial hit")
	}
	if st.BytesHit+st.BytesFetched+st.BytesFailed != st.BytesReferenced {
		t.Errorf("segment byte identity broken: %d+%d+%d != %d",
			st.BytesHit, st.BytesFetched, st.BytesFailed, st.BytesReferenced)
	}
}

// TestSegmentedWireFields checks the segment fields of /v1/stats, /v1/shards
// and /v1/resident?format=extents appear on segmented servers — and that the
// raw JSON of an unsegmented server never mentions them (wire compat).
func TestSegmentedWireFields(t *testing.T) {
	_, segTS := newTestServerConfig(t, testSegConfig())
	var clip api.Clip
	getRange(t, segTS.URL+"/v1/clips/3", "bytes=0-0", nil, &clip)

	var st api.Stats
	getJSON(t, segTS.URL+"/v1/stats", &st)
	if st.SegmentSizeBytes != int64(256*media.MB) {
		t.Errorf("segmented stats segmentSizeBytes = %d", st.SegmentSizeBytes)
	}
	if st.PrefixSegments != 2 || st.ResidentSegments != 1 || st.SegmentsFetched != 1 {
		t.Errorf("segmented stats = %+v, want prefix 2, 1 resident, 1 fetched", st)
	}
	var shards api.Shards
	getJSON(t, segTS.URL+"/v1/shards", &shards)
	total := 0
	for _, sh := range shards.Shards {
		total += sh.ResidentSegments
	}
	if total != 1 {
		t.Errorf("shard residentSegments sum = %d, want 1", total)
	}
	var ext api.ResidentExtents
	getJSON(t, segTS.URL+"/v1/resident?format=extents", &ext)
	if ext.SegmentSizeBytes != int64(256*media.MB) {
		t.Errorf("extents segmentSizeBytes = %d", ext.SegmentSizeBytes)
	}
	if ext.UsedBytes != int64(256*media.MB) {
		t.Errorf("extents usedBytes = %d, want one segment", ext.UsedBytes)
	}

	// Unsegmented servers must not leak any segment field onto the wire.
	_, ts := newTestServer(t)
	getJSON(t, ts.URL+"/v1/clips/2", nil)
	for _, path := range []string{"/v1/clips/2", "/v1/stats", "/v1/shards"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, field := range []string{"segment", "Segment", "bytesResident", "prefix"} {
			if strings.Contains(string(body), field) {
				t.Errorf("unsegmented %s leaks %q: %s", path, field, body)
			}
		}
	}
}

// TestSegmentedMetricsGauges checks the segment gauges appear in the
// Prometheus exposition only on segmented servers.
func TestSegmentedMetricsGauges(t *testing.T) {
	_, segTS := newTestServerConfig(t, testSegConfig())
	getRange(t, segTS.URL+"/v1/clips/3", "bytes=0-0", nil, nil)
	resp, err := http.Get(segTS.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if !strings.Contains(text, "mediacache_cache_resident_segments 1") {
		t.Errorf("segmented metrics lack resident_segments gauge:\n%s", text)
	}
	if !strings.Contains(text, "mediacache_cache_segment_size_bytes") {
		t.Errorf("segmented metrics lack segment_size_bytes gauge")
	}

	_, ts := newTestServer(t)
	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, gauge := range []string{"mediacache_cache_resident_segments", "mediacache_cache_segment_size_bytes"} {
		if strings.Contains(string(body), gauge) {
			t.Errorf("unsegmented metrics expose %s", gauge)
		}
	}
}
