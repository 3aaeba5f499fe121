package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of samples,
// sorting them in place. Nearest rank reports a value that was actually
// measured, never an interpolation between two.
func percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	if !slices.IsSorted(samples) {
		slices.Sort(samples)
	}
	rank := int(math.Ceil(q*float64(len(samples)))) - 1
	return samples[min(max(rank, 0), len(samples)-1)]
}

// micros converts a duration to fractional microseconds.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the middle value of xs (the mean of the two middle values
// for an even count), sorting a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// geomean returns the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio returns num/den, or 0 when den is 0: a layer the workload never
// exercised reports zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// clockTick is the kernel's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTick = 100

// processCPU returns the user+system CPU time a process has used, from
// /proc/<pid>/stat (fields 14 and 15, counted after the parenthesised
// command name, which may itself contain spaces).
func processCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	fields := strings.Fields(s[i+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed CPU times in /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// selfCPU returns this process's user+system CPU time from getrusage, which
// has microsecond resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns a process's peak resident set size (VmHWM) in MiB.
func peakRSS(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// promSamples holds the parsed lines of a metrics page; a key is the metric
// name with its label set exactly as exposed, e.g.
// `mediacache_http_request_seconds_sum{route="GET /v1/clips/{id}"}`.
type promSamples map[string]float64

// parseProm reads Prometheus text exposition, skipping comments.
func parseProm(r io.Reader) (promSamples, error) {
	out := promSamples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed exposition value in %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// routeKey names the latency histogram series of one route.
func routeKey(suffix, route string) string {
	return fmt.Sprintf("mediacache_http_request_seconds_%s{route=%q}", suffix, route)
}

// routeMean returns the mean service time of route between two scrapes, in
// microseconds.
func routeMean(before, after promSamples, route string) float64 {
	count := after[routeKey("count", route)] - before[routeKey("count", route)]
	sum := after[routeKey("sum", route)] - before[routeKey("sum", route)]
	return ratio(sum*1e6, count)
}
