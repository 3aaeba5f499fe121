// Command perfbench is the repository benchmark: it drives one of four
// workloads against the tree it is built from, prints every metric with its
// unit, checks the outputs, and ends with one JSON result line.
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs the
// same workload again with spans recorded around each call into a layer and
// reports the per-layer metrics instead. See README.md for the workloads,
// the metric definitions and the load model.
//
// It is normally started through run.sh, which builds cacheserver and this
// program first:
//
//	bash perfbench/run.sh --workload serve_zipf --seed 1 --seconds 25 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports: its metrics, how many calls it
// attempted and how many failed, the correctness checks that failed, and
// free-form details (sample counts, per-policy counts) for the meta line.
type result struct {
	metrics   map[string]metric
	attempted uint64
	failed    uint64
	problems  []string
	details   map[string]any
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, details: map[string]any{}}
}

func (r *result) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// fail records a failed correctness check; any makes the run incorrect.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // repository checkout the benchmark was built from
	server   string // cacheserver binary built from that checkout
	workdir  string // scratch directory for request logs and span files
}

// endToEnd and perLayer list every metric the two kinds of run print, with
// its unit; a run must report each exactly once. The 99th-percentile call
// latency is measured too but reported in the meta line only: on a host
// whose speed drifts, its run-to-run spread exceeds any bound a regression
// gate could use (see README.md, "Noise").
var endToEnd = []struct{ name, unit string }{
	{"throughput_rps", "1/s"},
	{"latency_p50_us", "us"},
	{"cpu_us_per_req", "us"},
	{"hit_rate", "ratio"},
	{"byte_hit_rate", "ratio"},
	{"success_rate", "ratio"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []struct{ name, unit string }{
	{"cacheserver.clip_route_us", "us"},
	{"cacheserver.batch_route_us", "us"},
	{"cacheserver.delete_route_us", "us"},
	{"cacheserver.peer_route_us", "us"},
	{"cacheserver.shed_total", "count"},
	{"cacheserver.reqlog_bytes_per_req", "B/req"},
	{"cacheclient.call_us", "us"},
	{"cacheclient.wire_us", "us"},
	{"shard.request_us", "us"},
	{"shard.fastpath_ratio", "ratio"},
	{"shard.touch_flushes_per_khit", "count/khit"},
	{"shard.items_per_batch", "items/batch"},
	{"core.request_ns", "ns"},
	{"core.victim_calls_per_miss", "count/miss"},
	{"core.evictions_per_miss", "count/miss"},
	{"core.allocs_per_req", "allocs/req"},
	{"core.segments_fetched_per_req", "count/req"},
	{"policy.dynsimple.victims_us", "us"},
	{"policy.igd.victims_us", "us"},
	{"policy.lrusk.victims_us", "us"},
	{"policy.dynsimple.record_ns", "ns"},
	{"policy.igd.record_ns", "ns"},
	{"policy.lrusk.record_ns", "ns"},
	{"policy.victims_share", "ratio"},
	{"cluster.peer_hit_ratio", "ratio"},
	{"cluster.digest_skip_ratio", "ratio"},
	{"cluster.hedges_per_consult", "count/consult"},
	{"cluster.peer_errors", "count"},
	{"workload.gen_ns_per_req", "ns/req"},
	{"bench.null_call_us", "us"},
	{"bench.trace_overhead", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"serve_zipf":  runServeZipf,
	"serve_mixed": runServeMixed,
	"evict_heavy": runEvictHeavy,
	"cluster_hop": runClusterHop,
}

func main() {
	var o options
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.StringVar(&o.workload, "workload", "", "workload to run: serve_zipf, serve_mixed, evict_heavy or cluster_hop")
	fl.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same inputs")
	fl.Float64Var(&o.seconds, "seconds", 10, "length of the measured part of the run")
	trace := fl.Int("trace", 0, "1 runs the traced per-layer variant instead of the end-to-end one")
	fl.StringVar(&o.root, "root", ".", "repository checkout the benchmark measures")
	fl.StringVar(&o.server, "server", "", "cacheserver binary built from -root")
	fl.StringVar(&o.workdir, "workdir", "", "directory for request logs and span files")
	if err := fl.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = *trace == 1
	run, ok := workloads[o.workload]
	if !ok || (*trace != 0 && *trace != 1) || o.seconds <= 0 || o.workdir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (serve_zipf, serve_mixed, evict_heavy or cluster_hop), -trace 0|1, -seconds > 0 and -workdir")
		os.Exit(2)
	}
	if o.workload != "evict_heavy" && o.server == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -server is required for HTTP workloads")
		os.Exit(2)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}

	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, o, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// emit prints the human-readable metric table, the run metadata and the
// final JSON result line. A per-layer metric of a layer the workload does
// not run is reported as 0; a missing end-to-end metric is a bug in the
// benchmark and counts as a failed check.
func emit(w io.Writer, o options, res *result) error {
	want := endToEnd
	if o.trace {
		want = perLayer
	}
	out := make(map[string]metric, len(want))
	for _, m := range want {
		v, ok := res.metrics[m.name]
		switch {
		case !ok && o.trace:
			v = metric{Value: 0, Unit: m.unit}
		case !ok:
			res.fail("metric %s was not measured", m.name)
			continue
		}
		if v.Unit != m.unit {
			res.fail("metric %s reported in %q, declared %q", m.name, v.Unit, m.unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.fail("metric %s is %v", m.name, v.Value)
			v.Value = 0
		}
		out[m.name] = v
		fmt.Fprintf(w, "%-34s %16.6f %s\n", m.name, v.Value, v.Unit)
	}
	if res.attempted == 0 {
		res.fail("the run attempted no calls")
	}
	for _, p := range res.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}

	meta := runMetadata(o)
	meta["details"] = res.details
	meta["problems"] = res.problems
	mb, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "meta %s\n", mb)

	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runMetadata describes where and on what a run happened, so figures can be
// explained later: host CPU, CPU counts, GOMAXPROCS of this process and the
// servers it spawns, Go version, the code measured and the seed.
func runMetadata(o options) map[string]any {
	serverProcs := fmt.Sprint(runtime.NumCPU())
	if env := os.Getenv("GOMAXPROCS"); env != "" {
		serverProcs = env
	}
	commit, digest := sourceIdentity(o.root)
	return map[string]any{
		"workload":          o.workload,
		"seed":              o.seed,
		"seconds":           o.seconds,
		"trace":             o.trace,
		"cpu_model":         cpuModel(),
		"nproc":             runtime.NumCPU(),
		"bench_gomaxprocs":  runtime.GOMAXPROCS(0),
		"server_gomaxprocs": serverProcs,
		"go_version":        runtime.Version(),
		"commit":            commit,
		"source_sha256":     digest,
		"server_stderr":     os.DevNull + " (per-request access log discarded)",
		"time_utc":          time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceIdentity names the code under test: the git commit when the
// checkout is a repository, and always a digest of the Go sources and
// module files, which identifies checkouts that carry no git metadata.
func sourceIdentity(root string) (commit, digest string) {
	commit = "unknown (not a git checkout)"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return commit, "unknown: " + err.Error()
	}
	return commit, hex.EncodeToString(h.Sum(nil))
}
