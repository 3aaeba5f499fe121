package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mediacache/internal/api"
	"mediacache/internal/media"
)

// opKind is the kind of one HTTP call the benchmark makes.
type opKind uint8

const (
	opGet    opKind = iota // GET /v1/clips/{id}, whole clip, through cacheclient
	opRange                // GET /v1/clips/{id} with a Range header
	opBatch                // POST /v1/batch through cacheclient
	opDelete               // DELETE /v1/clips/{id} through cacheclient
)

var opSpanNames = [...]string{
	opGet:    "cacheclient.Clip",
	opRange:  "http.RangeGet",
	opBatch:  "cacheclient.Batch",
	opDelete: "cacheclient.Delete",
}

// op is one generated call. start/length describe a Range GET; batch
// indexes a batch's items in the phase's batch table. An op holds no
// pointers, so the collector never scans a run's op sequence, which would
// otherwise add collection work to the benchmark process on every cycle.
type op struct {
	kind   opKind
	clip   media.ClipID
	start  media.Bytes
	length media.Bytes
	batch  int32
}

// batchItem is one ranged item of a generated batch.
type batchItem struct {
	clip          media.ClipID
	start, length media.Bytes
}

// batchItems builds the wire items of a batch.
func batchItems(items []batchItem) []api.BatchItem {
	out := make([]api.BatchItem, len(items))
	for i, it := range items {
		start, length := int64(it.start), int64(it.length)
		out[i] = api.BatchItem{Clip: it.clip, StartBytes: &start, LengthBytes: &length}
	}
	return out
}

// outcomes the cache engine reports, indexed for the tally.
var outcomeNames = []string{"hit", "miss-cached", "miss-bypassed", "miss-too-large", "miss-degraded", "miss-error"}

func outcomeIndex(s string) int {
	for i, n := range outcomeNames {
		if n == s {
			return i
		}
	}
	return -1
}

// tally counts what the benchmark saw come back from one server: calls, clip
// references completed, engine outcomes and the bytes each reference
// touched, as the responses report them. The ledger identities are checked
// against it.
type tally struct {
	calls      uint64
	failed     uint64
	refs       uint64 // clip references completed (a batch item counts one)
	outcomes   [6]uint64
	bytesRef   int64
	bytesFetch int64
	bytesFail  int64
	batchItems uint64
	wrong      []string // responses that contradict the request
}

func (t *tally) add(o *tally) {
	t.calls += o.calls
	t.failed += o.failed
	t.refs += o.refs
	for i := range t.outcomes {
		t.outcomes[i] += o.outcomes[i]
	}
	t.bytesRef += o.bytesRef
	t.bytesFetch += o.bytesFetch
	t.bytesFail += o.bytesFail
	t.batchItems += o.batchItems
	if len(t.wrong) < 10 {
		t.wrong = append(t.wrong, o.wrong...)
	}
}

func (t *tally) wrongf(format string, args ...any) {
	if len(t.wrong) < 10 {
		t.wrong = append(t.wrong, fmt.Sprintf(format, args...))
	}
}

// reference books one serviced clip reference. rng is nil for whole-clip
// references, whose bytes follow from the outcome.
func (t *tally) reference(id media.ClipID, size int64, outcome string, hit bool, rng *api.RangeInfo) {
	idx := outcomeIndex(outcome)
	if idx < 0 {
		t.wrongf("clip %d: unknown outcome %q", id, outcome)
		return
	}
	if hit != (idx == 0) {
		t.wrongf("clip %d: hit=%v with outcome %q", id, hit, outcome)
	}
	t.refs++
	t.outcomes[idx]++
	if rng != nil {
		t.bytesFetch += rng.BytesFetched
		t.bytesFail += rng.BytesFailed
		t.bytesRef += rng.BytesHit + rng.BytesFetched + rng.BytesFailed
		return
	}
	t.bytesRef += size
	switch outcome {
	case "hit": // hit bytes are what bytesRef holds beyond fetched and failed
	case "miss-degraded":
		t.bytesFail += size
	default:
		t.bytesFetch += size
	}
}

// target is the server a phase drives.
type target struct {
	node *node
	repo *media.Repository
}

// worker is one closed-loop caller: it sends its next call only after the
// previous one has returned.
type worker struct {
	tgt     target
	batches [][mixedBatch]batchItem
	tally   tally
	rec     *recorder // nil unless the phase is traced
	// lat holds the per-call latencies of a timed phase, by sub-window.
	lat [][]time.Duration
}

// do makes one call and books its reply; in a timed phase sub is the
// current sub-window, which the call's latency is filed under.
func (w *worker) do(o *op, sub *atomic.Int32) {
	ctx := context.Background()
	c := w.tgt.node.client
	var items []api.BatchItem
	if o.kind == opBatch {
		items = batchItems(w.batches[o.batch][:])
	}
	w.tally.calls++
	if w.rec != nil {
		w.rec.begin(opSpanNames[o.kind])
	}
	start := time.Now()
	var err error
	var clipRes api.Clip
	var batch api.BatchResponse
	switch o.kind {
	case opGet:
		clipRes, err = c.Clip(ctx, o.clip)
	case opRange:
		clipRes, err = w.rangeGet(ctx, o)
	case opBatch:
		batch, err = c.Batch(ctx, items)
	case opDelete:
		err = c.Delete(ctx, o.clip)
	}
	elapsed := time.Since(start)
	if w.rec != nil {
		w.rec.end()
	}
	if sub != nil {
		k := int(sub.Load())
		for len(w.lat) <= k {
			w.lat = append(w.lat, nil)
		}
		w.lat[k] = append(w.lat[k], elapsed)
	}
	if err != nil {
		w.tally.failed++
		return
	}
	switch o.kind {
	case opGet, opRange:
		w.bookClip(o, &clipRes)
	case opBatch:
		w.bookBatch(items, &batch)
	}
}

// rangeGet issues a Range GET. cacheclient has no Range call, so this goes
// through the same HTTP client the cacheclient instance uses.
func (w *worker) rangeGet(ctx context.Context, o *op) (api.Clip, error) {
	var out api.Clip
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		w.tgt.node.base+"/v1/clips/"+strconv.Itoa(int(o.clip)), nil)
	if err != nil {
		return out, err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", o.start, o.start+o.length-1))
	resp, err := w.tgt.node.http.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent && resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		return out, fmt.Errorf("range GET clip %d: status %d", o.clip, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("range GET clip %d: decoding: %w", o.clip, err)
	}
	return out, nil
}

func (w *worker) bookClip(o *op, r *api.Clip) {
	clip, _ := w.tgt.repo.Lookup(o.clip)
	if r.Clip != o.clip || r.SizeBytes != int64(clip.Size) {
		w.tally.wrongf("asked for clip %d (%d bytes), got clip %d (%d bytes)", o.clip, clip.Size, r.Clip, r.SizeBytes)
		return
	}
	if o.kind == opRange {
		if !rangeCovers(r.Range, o.start, o.length) {
			w.tally.wrongf("clip %d: range [%d,+%d) answered with %+v", o.clip, o.start, o.length, r.Range)
			return
		}
	}
	w.tally.reference(r.Clip, r.SizeBytes, r.Outcome, r.Hit, r.Range)
}

// rangeCovers reports whether a range response describes the requested
// bytes, with hit, fetched and failed bytes covering at least the range
// (segment granularity may round it up).
func rangeCovers(r *api.RangeInfo, start, length media.Bytes) bool {
	return r != nil && r.StartBytes == int64(start) && r.LengthBytes == int64(length) &&
		r.BytesHit >= 0 && r.BytesFetched >= 0 && r.BytesFailed >= 0 &&
		r.BytesHit+r.BytesFetched+r.BytesFailed >= r.LengthBytes
}

func (w *worker) bookBatch(items []api.BatchItem, b *api.BatchResponse) {
	if len(b.Items) != len(items) {
		w.tally.wrongf("batch of %d answered with %d items", len(items), len(b.Items))
		return
	}
	itemFailed := false
	for i, it := range b.Items {
		want := items[i]
		if it.Status != http.StatusOK && it.Status != http.StatusPartialContent {
			itemFailed = true
			continue
		}
		clip, _ := w.tgt.repo.Lookup(want.Clip)
		if it.Clip != want.Clip || it.SizeBytes != int64(clip.Size) {
			w.tally.wrongf("batch item %d: asked for clip %d, got clip %d (%d bytes)", i, want.Clip, it.Clip, it.SizeBytes)
			continue
		}
		if want.StartBytes != nil && !rangeCovers(it.Range, media.Bytes(*want.StartBytes), media.Bytes(*want.LengthBytes)) {
			w.tally.wrongf("batch item %d: range of clip %d answered with %+v", i, want.Clip, it.Range)
			continue
		}
		w.tally.batchItems++
		w.tally.reference(it.Clip, it.SizeBytes, it.Outcome, it.Hit, it.Range)
	}
	if itemFailed {
		// A batch with a failed item is a failed call: the caller did not
		// get everything it asked for.
		w.tally.failed++
	}
}

// subWindowLen is the length of the sub-windows a timed phase is cut
// into. Rates, percentiles and CPU per reference are taken per sub-window
// and reported as their median, so a few seconds in which the host runs
// slow move one sub-window, not the result.
const subWindowLen = time.Second

// phase drives ops[cursor...] at a target with a fixed set of closed-loop
// workers until either the cursor reaches until (until > 0) or the
// duration has passed. The op sequence wraps if a long phase exhausts it.
type phase struct {
	tgt      target
	ops      []op
	batches  [][mixedBatch]batchItem // items of the ops' batches
	cursor   *atomic.Int64
	workers  int
	until    int64
	duration time.Duration
	timed    bool                 // cut into sub-windows and keep per-call latencies
	cpu      func() time.Duration // CPU the serving processes have used; nil counts none
	recs     []*recorder          // one per worker when traced
}

// subWindow is one complete sub-window of a timed phase.
type subWindow struct {
	dur  time.Duration
	refs uint64
	cpu  time.Duration
	lat  []time.Duration
}

// phaseResult is what a phase measured.
type phaseResult struct {
	tally   tally
	elapsed time.Duration
	subs    []subWindow
}

// samples returns every per-call latency of the complete sub-windows.
func (r phaseResult) samples() []time.Duration {
	var all []time.Duration
	for _, s := range r.subs {
		all = append(all, s.lat...)
	}
	return all
}

// medianOf returns the median over sub-windows of f.
func (r phaseResult) medianOf(f func(subWindow) float64) float64 {
	xs := make([]float64, len(r.subs))
	for i, s := range r.subs {
		xs[i] = f(s)
	}
	return median(xs)
}

// mark is the state of a timed phase at a sub-window boundary.
type mark struct {
	at   time.Time
	refs uint64
	cpu  time.Duration
}

func (p phase) run() phaseResult {
	ws := make([]*worker, p.workers)
	var wg sync.WaitGroup
	var sub *atomic.Int32
	var done atomic.Uint64 // references completed, for the sub-window marks
	if p.timed {
		sub = new(atomic.Int32)
	}
	cpu := p.cpu
	if cpu == nil {
		cpu = func() time.Duration { return 0 }
	}
	marks := []mark{{at: time.Now(), cpu: cpu()}}
	start := marks[0].at
	deadline := start.Add(p.duration)
	for i := range ws {
		w := &worker{tgt: p.tgt, batches: p.batches}
		if p.recs != nil {
			w.rec = p.recs[i]
		}
		ws[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w.rec != nil {
				w.rec.begin("bench.window")
				defer w.rec.end()
			}
			for {
				i := p.cursor.Add(1) - 1
				if p.until > 0 {
					if i >= p.until {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				refs := w.tally.refs
				w.do(&p.ops[i%int64(len(p.ops))], sub)
				done.Add(w.tally.refs - refs)
			}
		}()
	}
	if p.timed {
		n := max(1, int(p.duration/subWindowLen))
		step := p.duration / time.Duration(n)
		for k := 1; k <= n; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * step)))
			sub.Store(int32(k))
			marks = append(marks, mark{at: time.Now(), refs: done.Load(), cpu: cpu()})
		}
	}
	wg.Wait()
	res := phaseResult{elapsed: time.Since(start)}
	for _, w := range ws {
		res.tally.add(&w.tally)
	}
	for k := 1; k < len(marks); k++ {
		s := subWindow{
			dur:  marks[k].at.Sub(marks[k-1].at),
			refs: marks[k].refs - marks[k-1].refs,
			cpu:  marks[k].cpu - marks[k-1].cpu,
		}
		for _, w := range ws {
			if k-1 < len(w.lat) {
				s.lat = append(s.lat, w.lat[k-1]...)
			}
		}
		res.subs = append(res.subs, s)
	}
	return res
}
