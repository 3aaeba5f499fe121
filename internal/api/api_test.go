package api

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

// wireFields freezes the JSON contract: renaming or dropping a field is a
// breaking change that must fail here first.
var wireFields = map[string][]string{
	"Error":           {"error"},
	"Clip":            {"clip", "kind", "sizeBytes", "outcome", "hit", "latencySeconds", "bytesResident", "prefixSegments", "segments", "range", "expiresAtTick", "peer"},
	"SegmentInfo":     {"sizeBytes", "total", "resident"},
	"RangeInfo":       {"startBytes", "lengthBytes", "bytesHit", "bytesFetched", "bytesFailed"},
	"BatchItem":       {"clip", "startBytes", "lengthBytes"},
	"BatchRequest":    {"items"},
	"BatchItemResult": {"clip", "status", "outcome", "hit", "sizeBytes", "latencySeconds", "range", "error", "peer"},
	"BatchResponse":   {"items", "shed"},
	"Stats":           {"policy", "shards", "requests", "hits", "hitRate", "byteHitRate", "evictions", "bytesFetched", "bytesFailed", "degradedMisses", "residentClips", "usedBytes", "capacityBytes", "bypassedMisses", "victimCalls", "note", "segmentSizeBytes", "prefixSegments", "residentSegments", "partialHits", "segmentsFetched", "segmentsEvicted", "ttlTicks", "invalidated", "expired", "bytesInvalidated"},
	"RequestLogEntry": {"tick", "wallMicros", "client", "clip", "sizeBytes", "startBytes", "lengthBytes", "policy", "outcome", "hit", "status", "latencyMicros", "modelLatencySeconds", "peer"},
	"ResidentClip":    {"id", "kind", "sizeBytes"},
	"Resident":        {"clips", "total", "offset", "limit", "usedBytes", "freeBytes"},
	"ResidentIDs":     {"clips", "usedBytes", "freeBytes"},
	"ResidentExtent":  {"offsetBytes", "lengthBytes"},
	"ClipExtents":     {"id", "sizeBytes", "bytesResident", "extents"},
	"ResidentExtents": {"clips", "total", "offset", "limit", "segmentSizeBytes", "usedBytes", "freeBytes"},
	"Policies":        {"current", "policies"},
	"Shard":           {"shard", "requests", "hits", "hitRate", "residentClips", "residentSegments", "usedBytes", "capacityBytes"},
	"Shards":          {"shards"},
	"Health":          {"status", "residentClips", "usedBytes", "capacityBytes"},
	"BuildVersion":    {"api", "goVersion", "policy", "policySpec", "module", "revision"},
	"ClusterClip":     {"clip", "node", "sizeBytes"},
	"ClusterDigest":   {"node", "seq", "clips", "usedBytes", "segmentSizeBytes", "partialClips"},
	"ClusterPeer":     {"id", "url", "breaker", "digestSeq", "digestClips", "digestAgeSeconds", "digestFresh"},
	"ClusterStatus":   {"node", "replicas", "peers", "peerHits", "peerMisses", "peerErrors", "hedges", "hedgeWins", "digestSkips", "digestRefreshes", "digestErrors", "peerServed", "peerServedBytes"},
}

// jsonTags extracts the json field names of a struct type.
func jsonTags(t reflect.Type) []string {
	var tags []string
	for i := 0; i < t.NumField(); i++ {
		tag := t.Field(i).Tag.Get("json")
		for j := 0; j < len(tag); j++ {
			if tag[j] == ',' {
				tag = tag[:j]
				break
			}
		}
		tags = append(tags, tag)
	}
	return tags
}

func TestWireContractFrozen(t *testing.T) {
	types := map[string]reflect.Type{
		"Error":           reflect.TypeOf(Error{}),
		"Clip":            reflect.TypeOf(Clip{}),
		"SegmentInfo":     reflect.TypeOf(SegmentInfo{}),
		"RangeInfo":       reflect.TypeOf(RangeInfo{}),
		"BatchItem":       reflect.TypeOf(BatchItem{}),
		"BatchRequest":    reflect.TypeOf(BatchRequest{}),
		"BatchItemResult": reflect.TypeOf(BatchItemResult{}),
		"BatchResponse":   reflect.TypeOf(BatchResponse{}),
		"Stats":           reflect.TypeOf(Stats{}),
		"RequestLogEntry": reflect.TypeOf(RequestLogEntry{}),
		"ResidentClip":    reflect.TypeOf(ResidentClip{}),
		"Resident":        reflect.TypeOf(Resident{}),
		"ResidentIDs":     reflect.TypeOf(ResidentIDs{}),
		"ResidentExtent":  reflect.TypeOf(ResidentExtent{}),
		"ClipExtents":     reflect.TypeOf(ClipExtents{}),
		"ResidentExtents": reflect.TypeOf(ResidentExtents{}),
		"Policies":        reflect.TypeOf(Policies{}),
		"Shard":           reflect.TypeOf(Shard{}),
		"Shards":          reflect.TypeOf(Shards{}),
		"Health":          reflect.TypeOf(Health{}),
		"BuildVersion":    reflect.TypeOf(BuildVersion{}),
		"ClusterClip":     reflect.TypeOf(ClusterClip{}),
		"ClusterDigest":   reflect.TypeOf(ClusterDigest{}),
		"ClusterPeer":     reflect.TypeOf(ClusterPeer{}),
		"ClusterStatus":   reflect.TypeOf(ClusterStatus{}),
	}
	if len(types) != len(wireFields) {
		t.Fatalf("type map has %d entries, contract has %d", len(types), len(wireFields))
	}
	for name, typ := range types {
		want := append([]string(nil), wireFields[name]...)
		got := jsonTags(typ)
		sort.Strings(want)
		sorted := append([]string(nil), got...)
		sort.Strings(sorted)
		if !reflect.DeepEqual(sorted, want) {
			t.Errorf("%s wire fields = %v, contract %v", name, got, wireFields[name])
		}
	}
}

// TestPreSegmentWireCompat is the golden wire-compatibility proof: with
// segmentation off, every response marshals to exactly the bytes a
// pre-segment (PR 5) server produced, and the pre-segment documents decode
// into the extended structs without loss. The golden strings are frozen —
// do not regenerate them from the structs.
func TestPreSegmentWireCompat(t *testing.T) {
	cases := []struct {
		name   string
		v      any
		golden string
	}{
		{
			"Clip",
			Clip{Clip: 3, Kind: "video", SizeBytes: 1932735283, Outcome: "miss-cached", Hit: false, LatencySeconds: 12.5},
			`{"clip":3,"kind":"video","sizeBytes":1932735283,"outcome":"miss-cached","hit":false,"latencySeconds":12.5}`,
		},
		{
			"Stats",
			Stats{Policy: "GreedyDual", Shards: 4, Requests: 100, Hits: 60, HitRate: 0.6, ByteHitRate: 0.4, Evictions: 7, BytesFetched: 12345, BytesFailed: 67, DegradedMisses: 2, ResidentClips: 5, UsedBytes: 999, CapacityBytes: 1000, BypassedMisses: 1, VictimCalls: 9},
			`{"policy":"GreedyDual","shards":4,"requests":100,"hits":60,"hitRate":0.6,"byteHitRate":0.4,"evictions":7,"bytesFetched":12345,"bytesFailed":67,"degradedMisses":2,"residentClips":5,"usedBytes":999,"capacityBytes":1000,"bypassedMisses":1,"victimCalls":9}`,
		},
		{
			"Shard",
			Shard{Shard: 2, Requests: 10, Hits: 4, HitRate: 0.4, ResidentClips: 3, UsedBytes: 55, CapacityBytes: 100},
			`{"shard":2,"requests":10,"hits":4,"hitRate":0.4,"residentClips":3,"usedBytes":55,"capacityBytes":100}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := json.Marshal(tc.v)
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != tc.golden {
				t.Errorf("segmentation-off output changed:\n got %s\nwant %s", b, tc.golden)
			}
			// Round-trip the pre-segment document through the extended type.
			fresh := reflect.New(reflect.TypeOf(tc.v))
			if err := json.Unmarshal([]byte(tc.golden), fresh.Interface()); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh.Elem().Interface(), tc.v) {
				t.Errorf("pre-segment document decoded with loss:\n got %+v\nwant %+v",
					fresh.Elem().Interface(), tc.v)
			}
		})
	}
}

// TestBatchWireCompat freezes the POST /v1/batch contract introduced in
// PR 7. The golden strings are hand-written, not regenerated: a marshaling
// difference here is a breaking wire change.
func TestBatchWireCompat(t *testing.T) {
	start, length := int64(1048576), int64(-1)
	cases := []struct {
		name   string
		v      any
		golden string
	}{
		{
			"BatchRequest",
			BatchRequest{Items: []BatchItem{
				{Clip: 7},
				{Clip: 12, StartBytes: &start, LengthBytes: &length},
			}},
			`{"items":[{"clip":7},{"clip":12,"startBytes":1048576,"lengthBytes":-1}]}`,
		},
		{
			"BatchResponse",
			BatchResponse{Items: []BatchItemResult{
				{Clip: 7, Status: 200, Outcome: "hit", Hit: true, SizeBytes: 1932735283},
				{Clip: 12, Status: 200, Outcome: "miss-cached", SizeBytes: 536870912, LatencySeconds: 4.25,
					Range: &RangeInfo{StartBytes: 1048576, LengthBytes: 535822336, BytesFetched: 535822336}},
				{Clip: 9999, Status: 404, Error: "unknown clip id 9999"},
			}},
			`{"items":[{"clip":7,"status":200,"outcome":"hit","hit":true,"sizeBytes":1932735283},{"clip":12,"status":200,"outcome":"miss-cached","sizeBytes":536870912,"latencySeconds":4.25,"range":{"startBytes":1048576,"lengthBytes":535822336,"bytesHit":0,"bytesFetched":535822336,"bytesFailed":0}},{"clip":9999,"status":404,"error":"unknown clip id 9999"}]}`,
		},
		{
			"BatchResponseShed",
			BatchResponse{Items: []BatchItemResult{}, Shed: true},
			`{"items":[],"shed":true}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := json.Marshal(tc.v)
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != tc.golden {
				t.Errorf("batch wire output changed:\n got %s\nwant %s", b, tc.golden)
			}
			fresh := reflect.New(reflect.TypeOf(tc.v))
			if err := json.Unmarshal([]byte(tc.golden), fresh.Interface()); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh.Elem().Interface(), tc.v) {
				t.Errorf("golden document decoded with loss:\n got %+v\nwant %+v",
					fresh.Elem().Interface(), tc.v)
			}
		})
	}
}

// TestPreChurnWireCompat freezes the ISSUE 8 compatibility promise: with
// TTL disabled and no invalidations, every response marshals to exactly
// the bytes a pre-churn (PR 7) server produced — including on segmented
// servers — and pre-churn documents decode into the extended structs
// without loss. The golden strings are hand-written and frozen; do not
// regenerate them from the structs.
func TestPreChurnWireCompat(t *testing.T) {
	cases := []struct {
		name   string
		v      any
		golden string
	}{
		{
			"StatsSegmented",
			Stats{Policy: "GreedyDual", Shards: 2, Requests: 50, Hits: 20, HitRate: 0.4, ByteHitRate: 0.3, Evictions: 3, BytesFetched: 777, ResidentClips: 4, UsedBytes: 500, CapacityBytes: 1000, VictimCalls: 5, SegmentSizeBytes: 1048576, ResidentSegments: 12, PartialHits: 2, SegmentsFetched: 9, SegmentsEvicted: 4},
			`{"policy":"GreedyDual","shards":2,"requests":50,"hits":20,"hitRate":0.4,"byteHitRate":0.3,"evictions":3,"bytesFetched":777,"bytesFailed":0,"degradedMisses":0,"residentClips":4,"usedBytes":500,"capacityBytes":1000,"bypassedMisses":0,"victimCalls":5,"segmentSizeBytes":1048576,"residentSegments":12,"partialHits":2,"segmentsFetched":9,"segmentsEvicted":4}`,
		},
		{
			"ClipSegmented",
			Clip{Clip: 12, Kind: "audio", SizeBytes: 65536000, Outcome: "hit", Hit: true, BytesResident: 65536000, Segments: &SegmentInfo{SizeBytes: 1048576, Total: 63, Resident: 63}},
			`{"clip":12,"kind":"audio","sizeBytes":65536000,"outcome":"hit","hit":true,"latencySeconds":0,"bytesResident":65536000,"segments":{"sizeBytes":1048576,"total":63,"resident":63}}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := json.Marshal(tc.v)
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != tc.golden {
				t.Errorf("TTL-off output changed:\n got %s\nwant %s", b, tc.golden)
			}
			fresh := reflect.New(reflect.TypeOf(tc.v))
			if err := json.Unmarshal([]byte(tc.golden), fresh.Interface()); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh.Elem().Interface(), tc.v) {
				t.Errorf("pre-churn document decoded with loss:\n got %+v\nwant %+v",
					fresh.Elem().Interface(), tc.v)
			}
		})
	}
}

// TestStatsOmitsChurnFieldsWhenOff: the four churn fields never appear in
// a TTL-off, invalidation-free document.
func TestStatsOmitsChurnFieldsWhenOff(t *testing.T) {
	b, err := json.Marshal(Stats{Policy: "x"})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"ttlTicks", "invalidated", "expired", "bytesInvalidated"} {
		if _, ok := m[field]; ok {
			t.Errorf("%s should be omitted when zero: %s", field, b)
		}
	}
	cb, err := json.Marshal(Clip{Clip: 1, Kind: "video"})
	if err != nil {
		t.Fatal(err)
	}
	var cm map[string]any
	if err := json.Unmarshal(cb, &cm); err != nil {
		t.Fatal(err)
	}
	if _, ok := cm["expiresAtTick"]; ok {
		t.Errorf("expiresAtTick should be omitted when zero: %s", cb)
	}
}

func TestStatsOmitsShardsWhenUnsharded(t *testing.T) {
	b, err := json.Marshal(Stats{Policy: "x"})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["shards"]; ok {
		t.Fatalf("shards should be omitted when zero: %s", b)
	}
	if _, ok := m["note"]; ok {
		t.Fatalf("note should be omitted when empty: %s", b)
	}
}
