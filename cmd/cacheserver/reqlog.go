package main

// reqlog.go implements -reqlog: an NDJSON request log, one
// api.RequestLogEntry per serviced cache reference, carrying the
// requesting client (the X-Client-ID header), a global arrival tick, the
// wall-clock arrival time, the byte range, the outcome and both latencies
// (measured service time and modeled startup latency). The log is the
// measured half of the measure→model→replay loop: cmd/traceql sessionizes
// it, aggregates it and distills it back into a replayable workload spec.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"mediacache/internal/api"
)

// reqLogger serializes request-log entries to one NDJSON stream. Tick is a
// process-global arrival sequence number; WallMicros and Tick are stamped
// at log time under the same mutex that orders the writes, so ticks in the
// file are strictly increasing. One serviced request's entries (a batch
// logs one per item) are encoded into a reused buffer and reach the writer
// in a single Write.
type reqLogger struct {
	mu     sync.Mutex
	w      io.Writer
	buf    bytes.Buffer
	enc    *json.Encoder // encodes into buf
	tick   int64
	policy string
}

func newReqLogger(w io.Writer, policy string) *reqLogger {
	l := &reqLogger{w: w, policy: policy}
	l.enc = json.NewEncoder(&l.buf)
	return l
}

// logRefs records the serviced clip references of one request: every ref
// serveRefs settled without an error. start is when the handler began
// servicing, so LatencyMicros is the measured service time (the modeled
// startup latency travels separately in ModelLatencySeconds). A ranged
// reference logs the range the cache actually serviced (clamped to the
// clip), so traceql's range-bias fits see the bytes handled. Encoding and
// write errors are swallowed: the request was already serviced, and a torn
// log line must not fail it retroactively.
func (s *server) logRefs(r *http.Request, refs []clipRef, start time.Time) {
	l := s.reqlog
	if l == nil {
		return
	}
	client := r.Header.Get(api.ClientIDHeader)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Reset()
	for i := range refs {
		ref := &refs[i]
		if ref.err != nil {
			continue
		}
		l.tick++
		e := api.RequestLogEntry{
			Tick:                l.tick,
			WallMicros:          time.Now().UnixMicro(),
			Client:              client,
			Policy:              l.policy,
			Clip:                ref.clip.ID,
			SizeBytes:           int64(ref.clip.Size),
			Outcome:             ref.res.Outcome.String(),
			Hit:                 ref.res.Outcome.IsHit(),
			Status:              ref.status,
			LatencyMicros:       time.Since(start).Microseconds(),
			ModelLatencySeconds: ref.latency,
			Peer:                ref.peer,
		}
		if ref.ranged {
			e.StartBytes = int64(ref.res.Range.Start)
			e.LengthBytes = int64(ref.res.Range.Length)
		}
		_ = l.enc.Encode(e)
	}
	if l.buf.Len() > 0 {
		_, _ = l.w.Write(l.buf.Bytes())
	}
}
