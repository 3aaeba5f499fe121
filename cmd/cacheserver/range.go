package main

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"mediacache/internal/api"
	"mediacache/internal/media"
)

// byteRange is a parsed, clamped Range request: [start, start+length) within
// a clip of known size.
type byteRange struct {
	start  media.Bytes
	length media.Bytes
}

// errUnsatisfiable marks a syntactically valid Range no byte of which lies
// inside the clip — the 416 case, answered with Content-Range: bytes */size.
var errUnsatisfiable = fmt.Errorf("range not satisfiable")

// errMultiRange marks a multi-range request. The simulator serves outcome
// JSON, not an actual multipart/byteranges body, so multiple ranges are
// rejected with 416 rather than silently collapsed into one.
var errMultiRange = fmt.Errorf("multi-range requests are not supported")

// parseRange interprets an HTTP Range header against a clip of the given
// size. Returns (nil, nil) when the header is absent, names units other than
// bytes, or is malformed — RFC 9110 lets a server ignore such headers and
// serve 200. A valid single range is clamped to the clip and returned; a
// satisfiable multi-range or an unsatisfiable range returns an error for the
// 416 path.
func parseRange(header string, size media.Bytes) (*byteRange, error) {
	if header == "" {
		return nil, nil
	}
	spec, ok := strings.CutPrefix(header, "bytes=")
	if !ok {
		return nil, nil // unknown unit: ignore
	}
	if strings.Contains(spec, ",") {
		return nil, errMultiRange
	}
	first, last, ok := strings.Cut(strings.TrimSpace(spec), "-")
	if !ok {
		return nil, nil // malformed: ignore
	}
	if first == "" {
		// Suffix form "-n": the final n bytes.
		n, err := strconv.ParseInt(last, 10, 64)
		if err != nil || n < 0 {
			return nil, nil // malformed: ignore
		}
		if n == 0 {
			return nil, errUnsatisfiable
		}
		start := size - media.Bytes(n)
		if start < 0 {
			start = 0
		}
		return &byteRange{start: start, length: size - start}, nil
	}
	start, err := strconv.ParseInt(first, 10, 64)
	if err != nil || start < 0 {
		return nil, nil // malformed: ignore
	}
	if media.Bytes(start) >= size {
		return nil, errUnsatisfiable
	}
	if last == "" {
		// Open form "a-": from a to the end.
		return &byteRange{start: media.Bytes(start), length: size - media.Bytes(start)}, nil
	}
	end, err := strconv.ParseInt(last, 10, 64)
	if err != nil || end < start {
		return nil, nil // malformed: ignore
	}
	if media.Bytes(end) >= size {
		end = int64(size) - 1
	}
	return &byteRange{start: media.Bytes(start), length: media.Bytes(end-start) + 1}, nil
}

// contentRange formats the Content-Range header of a 206 response.
func contentRange(rng byteRange, size media.Bytes) string {
	return fmt.Sprintf("bytes %d-%d/%d", rng.start, rng.start+rng.length-1, size)
}

// setResidentBytesHeader reports how many of the clip's bytes are currently
// cached — the observable signal that a prefix-resident clip served its
// first bytes from cache.
func (s *server) setResidentBytesHeader(w http.ResponseWriter, id media.ClipID) {
	w.Header().Set("X-Cache-Resident-Bytes",
		strconv.FormatInt(int64(s.pool.ResidentBytes(id)), 10))
}

// segmentInfo builds the per-clip segment summary attached to segmented
// responses; nil on unsegmented pools.
func (s *server) segmentInfo(clip media.Clip) *api.SegmentInfo {
	segSize := s.pool.SegmentSize()
	if segSize == 0 {
		return nil
	}
	total := int((clip.Size + segSize - 1) / segSize)
	if total == 0 {
		total = 1
	}
	resident := 0
	for _, ext := range s.pool.ResidentExtentsOf(clip.ID) {
		resident += int((ext.Length + segSize - 1) / segSize)
	}
	return &api.SegmentInfo{
		SizeBytes: int64(segSize),
		Total:     total,
		Resident:  resident,
	}
}

// handleHeadClip services HEAD /v1/clips/{id}: the clip's size and current
// residency without touching the cache (no request is recorded, no clock
// tick). Clients use it to size Range requests and probe prefix residency.
func (s *server) handleHeadClip(w http.ResponseWriter, r *http.Request) {
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
	w.Header().Set("Accept-Ranges", "bytes")
	w.Header().Set("Content-Length", strconv.FormatInt(int64(clip.Size), 10))
	s.setResidentBytesHeader(w, clip.ID)
	w.WriteHeader(http.StatusOK)
}
