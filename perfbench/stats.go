package main

import (
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// latencies is a set of request or span durations.
type latencies []time.Duration

// sample is one request: how long it took and how many pairs it
// answered. A failed or refused request answers none and takes
// failedLatency, which exceeds every successful sample (the clients'
// own timeout bounds those).
type sample struct {
	d     time.Duration
	pairs int
}

// failedLatency is the clients' request timeout: a request that failed
// counts as if it had waited that long.
const failedLatency = 30 * time.Second

// quantileMs is the nearest-rank q-quantile of the samples' latencies,
// in milliseconds.
func quantileMs(ss []sample, q float64) float64 {
	d := make(latencies, len(ss))
	for i, s := range ss {
		d[i] = s.d
	}
	return ms(percentile(d, q))
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of d,
// sorting d in place; zero for no samples.
func percentile(d latencies, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	slices.Sort(d)
	i := int(math.Ceil(q*float64(len(d)))) - 1
	return d[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median of xs (sorted in place); zero for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
