package dynsimple_test

import (
	"fmt"
	"testing"

	"mediacache/internal/core"
	"mediacache/internal/media"
	"mediacache/internal/policy/dynsimple"
	"mediacache/internal/vtime"
	"mediacache/internal/workload"
	"mediacache/internal/zipf"
)

// eventLog records every engine event in emission order.
type eventLog struct{ events []core.Event }

func (l *eventLog) Observe(ev core.Event) { l.events = append(l.events, ev) }

// walkCounter wraps the engine's resident view to count full adoption walks.
type walkCounter struct {
	core.ResidentView
	walks *int
}

func (v walkCounter) ForEachResident(fn func(media.Clip) bool) {
	*v.walks++
	v.ResidentView.ForEachResident(fn)
}

// countingPolicy hands DYNSimple a view that counts ForEachResident calls.
type countingPolicy struct {
	*dynsimple.Policy
	walks int
}

func (p *countingPolicy) Victims(in media.Clip, view core.ResidentView, need media.Bytes, now vtime.Time) []media.ClipID {
	return p.Policy.Victims(in, walkCounter{view, &p.walks}, need, now)
}

// TestIndexedMatchesScanSegmented drives the indexed policy and its Scan()
// twin through one prefix-biased Range trace on segmented caches with a
// pinned prefix, where victims are often only trimmed or never reached and
// so stay resident after the policy popped them. The two event streams —
// hits, partial hits, misses, trims and evictions with their byte counts —
// must be identical, and the indexed policy must never fall back to the
// full resident walk: the previous call's popped victims are re-indexed
// directly.
func TestIndexedMatchesScanSegmented(t *testing.T) {
	repo := media.PaperRepository()
	for _, cfg := range []struct {
		seg   media.Bytes
		ratio float64
	}{{64 * media.MB, 0.05}, {256 * media.MB, 0.05}, {256 * media.MB, 0.125}} {
		seg, ratio := cfg.seg, cfg.ratio
		for _, refine := range []bool{true, false} {
			name := fmt.Sprintf("seg=%v/ratio=%v/refine=%v", seg, ratio, refine)
			t.Run(name, func(t *testing.T) {
				var opts []dynsimple.Option
				if !refine {
					opts = append(opts, dynsimple.WithoutRefinement())
				}
				idx := &countingPolicy{Policy: dynsimple.MustNew(repo.N(), 2, opts...)}
				scan := dynsimple.MustNew(repo.N(), 2, opts...).Scan()
				var logIdx, logScan eventLog
				build := func(p core.Policy, log *eventLog) *core.Cache {
					c, err := core.New(repo, repo.CacheSizeForRatio(ratio), p, core.WithObserver(log),
						core.WithSegments(seg), core.WithPrefixAdmission(2))
					if err != nil {
						t.Fatal(err)
					}
					return c
				}
				cIdx, cScan := build(idx, &logIdx), build(scan, &logScan)
				gen, err := workload.NewRangeGenerator(repo, zipf.MustNew(repo.N(), zipf.DefaultMean), 9,
					workload.DefaultRangeConfig())
				if err != nil {
					t.Fatal(err)
				}
				for i := range 2500 {
					req := gen.Next()
					a, errA := cIdx.RequestRange(req.Clip, req.Start, req.Length)
					b, errB := cScan.RequestRange(req.Clip, req.Start, req.Length)
					if errA != nil || errB != nil || a != b {
						t.Fatalf("request %d (%+v): indexed %+v/%v, scan %+v/%v", i, req, a, errA, b, errB)
					}
				}
				if len(logIdx.events) != len(logScan.events) {
					t.Fatalf("event counts diverge: indexed=%d scan=%d", len(logIdx.events), len(logScan.events))
				}
				for i := range logIdx.events {
					if logIdx.events[i] != logScan.events[i] {
						t.Fatalf("event %d diverged: indexed=%+v scan=%+v", i, logIdx.events[i], logScan.events[i])
					}
				}
				if cIdx.Stats() != cScan.Stats() {
					t.Fatalf("stats diverge:\nindexed %+v\nscan    %+v", cIdx.Stats(), cScan.Stats())
				}
				trims := 0
				for _, ev := range logIdx.events {
					if ev.Type == core.EventTrim {
						trims++
					}
				}
				st := cIdx.Stats()
				if st.Evictions == 0 || trims == 0 {
					t.Fatalf("%d evictions, %d partial trims; check vacuous", st.Evictions, trims)
				}
				if idx.walks != 0 {
					t.Errorf("indexed policy walked the resident set %d times in %d Victims calls, want 0",
						idx.walks, st.VictimCalls)
				}
			})
		}
	}
}
