package main

// reqlog.go implements -reqlog: an NDJSON request log, one
// api.RequestLogEntry per serviced cache reference, carrying the
// requesting client (the X-Client-ID header), a global arrival tick, the
// wall-clock arrival time, the byte range, the outcome and both latencies
// (measured service time and modeled startup latency). The log is the
// measured half of the measure→model→replay loop: cmd/traceql sessionizes
// it, aggregates it and distills it back into a replayable workload spec.

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mediacache/internal/api"
)

// reqLogger serializes request-log entries to one NDJSON stream. Tick is a
// process-global arrival sequence number; WallMicros and Tick are stamped
// at log time under the same mutex that orders the writes, so ticks in the
// file are strictly increasing.
type reqLogger struct {
	mu     sync.Mutex
	enc    *json.Encoder
	tick   atomic.Int64
	policy string
}

func newReqLogger(w io.Writer, policy string) *reqLogger {
	return &reqLogger{enc: json.NewEncoder(w), policy: policy}
}

// log writes one entry, stamping tick, wall time and policy. Encoding
// errors are swallowed: the request was already serviced, and a torn log
// line must not fail it retroactively.
func (l *reqLogger) log(e api.RequestLogEntry) {
	if l == nil {
		return
	}
	e.Tick = l.tick.Add(1)
	e.WallMicros = time.Now().UnixMicro()
	e.Policy = l.policy
	l.mu.Lock()
	defer l.mu.Unlock()
	_ = l.enc.Encode(e)
}

// logClip records one serviced clip reference. start is when the handler
// began servicing, so LatencyMicros is the measured service time (the
// modeled startup latency travels separately in ModelLatencySeconds). A
// ranged reference logs the range the cache actually serviced (clamped to
// the clip), so traceql's range-bias fits see the bytes handled.
func (s *server) logClip(r *http.Request, ref *clipRef, start time.Time) {
	if s.reqlog == nil {
		return
	}
	e := api.RequestLogEntry{
		Client:              r.Header.Get(api.ClientIDHeader),
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
	s.reqlog.log(e)
}
