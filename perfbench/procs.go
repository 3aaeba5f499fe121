package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"mediacache/internal/api"
	"mediacache/internal/cacheclient"
)

// healthTimeout bounds how long a spawned server may take to answer
// /v1/healthz before set-up fails.
const healthTimeout = 20 * time.Second

// healthPoll is the pause between two /v1/healthz polls during set-up.
const healthPoll = 100 * time.Microsecond

// node is one spawned cacheserver process.
type node struct {
	name   string
	base   string // http://127.0.0.1:port
	cmd    *exec.Cmd
	done   chan struct{} // closed once the process has been waited for
	client *cacheclient.Client
	http   *http.Client
}

// nodeSpec describes a server to spawn: its name, listen port and extra
// command-line flags (the listen address is added here).
type nodeSpec struct {
	name string
	port int
	args []string
}

// freePorts asks the kernel for n distinct unused loopback ports.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		// Held open until every port is chosen, so none repeats.
		defer l.Close()
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// newHTTPClient returns a keep-alive client holding at most conns
// connections to each server.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns * 4,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// newCacheClient wraps hc in a cacheclient that makes exactly one attempt
// per call, so every failed or refused call is visible to the benchmark
// instead of being retried away.
func newCacheClient(base string, hc *http.Client) (*cacheclient.Client, error) {
	return cacheclient.New(cacheclient.Config{
		BaseURL:        base,
		HTTPClient:     hc,
		MaxAttempts:    1,
		AttemptTimeout: 30 * time.Second,
	})
}

// startNodes spawns every server at once and returns when all of them
// answer /v1/healthz with 200, with the time that took: the set-up time of
// an HTTP workload. The servers' standard error, which carries the
// per-request access log, goes to the null device.
func startNodes(bin string, specs []nodeSpec, conns int) ([]*node, time.Duration, error) {
	start := time.Now()
	nodes := make([]*node, 0, len(specs))
	for _, sp := range specs {
		args := append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(sp.port)}, sp.args...)
		cmd := exec.Command(bin, args...)
		// Servers die with the benchmark even if it is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			stopNodes(nodes)
			return nil, 0, fmt.Errorf("starting %s: %w", sp.name, err)
		}
		n := &node{
			name: sp.name,
			base: "http://127.0.0.1:" + strconv.Itoa(sp.port),
			cmd:  cmd,
			done: make(chan struct{}),
			http: newHTTPClient(conns),
		}
		go func() {
			_ = cmd.Wait() // the exit status of a killed server carries nothing
			close(n.done)
		}()
		c, err := newCacheClient(n.base, n.http)
		if err != nil {
			stopNodes(append(nodes, n))
			return nil, 0, err
		}
		n.client = c
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		if err := n.waitHealthy(start.Add(healthTimeout)); err != nil {
			stopNodes(nodes)
			return nil, 0, err
		}
	}
	return nodes, time.Since(start), nil
}

// waitHealthy polls /v1/healthz until it answers 200. Between polls it
// yields the CPU with a raw nanosleep: a poll loop that never sleeps takes a
// CPU the starting server needs on a 2-CPU host, and time.Sleep, which
// overshoots a 100 µs pause by about a millisecond (README.md, "Load
// model"), would add that much to a set-up time of a few milliseconds. The
// kernel's nanosleep overshoots the same pause by about 60 µs at the median.
func (n *node) waitHealthy(deadline time.Time) error {
	pause := syscall.NsecToTimespec(int64(healthPoll))
	for {
		select {
		case <-n.done:
			return fmt.Errorf("server %s exited during set-up: %v", n.name, n.cmd.ProcessState)
		default:
		}
		resp, err := n.http.Get(n.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server %s not healthy after %v (last error %v)", n.name, healthTimeout, err)
		}
		_ = syscall.Nanosleep(&pause, nil) // an interrupted pause only polls sooner
	}
}

// stop kills the server and waits for it to exit.
func (n *node) stop() {
	_ = n.cmd.Process.Kill() // fails only if it already exited, which the wait below covers
	<-n.done
	n.http.CloseIdleConnections()
}

func stopNodes(nodes []*node) {
	for _, n := range nodes {
		n.stop()
	}
}

func (n *node) pid() int { return n.cmd.Process.Pid }

// scrape is a server's observable state at one instant: its ledger, its
// metrics page and its cluster status (clustered servers only).
type scrape struct {
	stats   api.Stats
	prom    promSamples
	cluster api.ClusterStatus
}

func (n *node) scrape(clustered bool) (scrape, error) {
	var s scrape
	ctx := context.Background()
	var err error
	if s.stats, err = n.client.Stats(ctx); err != nil {
		return s, fmt.Errorf("%s /v1/stats: %w", n.name, err)
	}
	resp, err := n.http.Get(n.base + "/v1/metrics")
	if err != nil {
		return s, fmt.Errorf("%s /v1/metrics: %w", n.name, err)
	}
	s.prom, err = parseProm(resp.Body)
	resp.Body.Close()
	if err != nil {
		return s, fmt.Errorf("%s /v1/metrics: %w", n.name, err)
	}
	if clustered {
		if s.cluster, err = n.client.ClusterStatus(ctx); err != nil {
			return s, fmt.Errorf("%s /v1/cluster: %w", n.name, err)
		}
	}
	return s, nil
}

// peakRSSOf sums the peak resident set size of the servers, in MiB.
func peakRSSOf(nodes []*node) (float64, error) {
	total := 0.0
	for _, n := range nodes {
		mb, err := peakRSS(strconv.Itoa(n.pid()))
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}
