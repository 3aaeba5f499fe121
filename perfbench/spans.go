package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// maxSpans bounds how many span records one recorder keeps for the span
// file; per-name totals keep counting past it, so means cover every call.
const maxSpans = 1 << 14

// spanRecord is one recorded span: times are nanoseconds since the
// recorder's epoch, and parent indexes the same recorder's records (-1 for
// a root span).
type spanRecord struct {
	name       string
	parent     int32
	start, end int64
}

// spanTotal accumulates every span of one name.
type spanTotal struct {
	count   uint64
	totalNS int64
}

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	name   string
	record int32 // index into records, or -1 once the cap was reached
	start  int64
}

// recorder collects spans in memory for one goroutine; spans nest, and
// writeSpans derives a span's self time as its duration minus the time its
// children cover.
// The benchmark records spans only in its own code, around calls into a
// layer's public surface; nothing inside the program is instrumented.
type recorder struct {
	epoch   time.Time
	records []spanRecord
	stack   []openSpan
	totals  map[string]*spanTotal
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch, totals: map[string]*spanTotal{}}
}

// begin opens a span named name as a child of the innermost open span.
func (r *recorder) begin(name string) {
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1].record
	}
	now := int64(time.Since(r.epoch))
	idx := int32(-1)
	if len(r.records) < maxSpans {
		idx = int32(len(r.records))
		r.records = append(r.records, spanRecord{name: name, parent: parent, start: now})
	}
	r.stack = append(r.stack, openSpan{name: name, record: idx, start: now})
}

// open reports whether a span is open.
func (r *recorder) open() bool { return len(r.stack) > 0 }

// end closes the innermost open span.
func (r *recorder) end() {
	now := int64(time.Since(r.epoch))
	top := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	dur := now - top.start
	if top.record >= 0 {
		r.records[top.record].end = now
	}
	t := r.totals[top.name]
	if t == nil {
		t = &spanTotal{}
		r.totals[top.name] = t
	}
	t.count++
	t.totalNS += dur
}

// mergeTotals sums the per-name totals of several recorders.
func mergeTotals(recs ...*recorder) map[string]spanTotal {
	out := map[string]spanTotal{}
	for _, r := range recs {
		for name, t := range r.totals {
			o := out[name]
			o.count += t.count
			o.totalNS += t.totalNS
			out[name] = o
		}
	}
	return out
}

// meanNS is the mean span duration in nanoseconds; 0 for no spans.
func (t spanTotal) meanNS() float64 { return ratio(float64(t.totalNS), float64(t.count)) }

// writeSpans writes every kept span record as one JSON object per line,
// with its self time derived from its children's records. Each recorder
// is one goroutine ("track"); span ids are unique within a track.
func writeSpans(path string, recs ...*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for track, r := range recs {
		child := make([]int64, len(r.records))
		for _, s := range r.records {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.records {
			if err := enc.Encode(struct {
				Track  int    `json:"track"`
				ID     int    `json:"id"`
				Parent int32  `json:"parent"`
				Name   string `json:"name"`
				Start  int64  `json:"start_ns"`
				End    int64  `json:"end_ns"`
				Self   int64  `json:"self_ns"`
			}{track, i, s.parent, s.name, s.start, s.end, s.end - s.start - child[i]}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
