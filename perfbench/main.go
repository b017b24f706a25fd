// Command perfbench is the repository's benchmark. It builds DL over a
// seeded citation DAG, serves it from two replicas behind the fleet
// router, drives a closed loop of two clients for a fixed window,
// checks answers against breadth-first search, and prints its metrics.
// The last line of its standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 the
// untraced window is followed by layer replays and by the same window
// on a second set-up whose handlers and stream listeners record spans,
// and the metrics are the per-layer ones.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload fleet-bulk|fleet-interactive \
//	          -seed N -seconds S -trace 0|1
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workloads maps each workload to why it exists. The library alone is
// not a workload: on a shared 2-vCPU host its memory-bound DL probe ran
// 10-18M pairs/s from run to run of the same code, wider than any bound
// a regression check could use. The observer stack and the probe are
// timed by replay on the fleet workloads' pairs instead.
var workloads = map[string]string{
	"fleet-bulk":        "4096-pair JSON batches of fresh uniform pairs, each sent with one single query, through router and two replicas: edge codec, scatter and chunking dominate, the cache never hits",
	"fleet-interactive": "single queries and 32-pair batches over a Zipf universe that fits the cache: per-request cost and cache hits dominate",
}

// buildDir holds everything a run writes: snapshots while it runs, the
// span file of a traced run afterwards. run.sh builds into it too.
const buildDir = ".bench_build"

// setupRuns is how many times a run sets the stack up; setup_s is the
// median.
const setupRuns = 5

// warmIters is each client's untimed warm-up, in loop iterations: it
// maps the snapshot's pages, opens the connections and fills the
// replicas' caches, so the window does not open on a filling cache. On
// fleet-bulk every pair is new, and a replica's cache is full once
// about its capacity (2^20) of pairs has passed through it: a tenth
// sits in its small queue, the rest is remembered in its ghost set.
// 320 iterations send each replica 1.3M pairs.
var warmIters = map[string]int{
	"fleet-bulk":        320,
	"fleet-interactive": 10000,
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "fleet-bulk or fleet-interactive")
	seed := flag.Int64("seed", 1, "seed for the graph and every request stream")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload fleet-bulk|fleet-interactive, -seconds >= 1, -trace 0|1")
		return 2
	}
	if err := bench(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func bench(w string, seed int64, window time.Duration, traced bool) error {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	in, err := newInputs(w, seed)
	if err != nil {
		return err
	}
	var sys *system
	var setups []setupTimes
	for i := 0; i < setupRuns; i++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC()
		var st setupTimes
		if sys, st, err = setUp(in, dir, i, nil); err != nil {
			return err
		}
		setups = append(setups, st)
	}
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	runtime.GC() // the last build's garbage is set-up's, not the window's

	l := newLoad(sys, in, w)
	l.run(warmIters[w], 0)
	var before counters
	if traced {
		before = readCounters(sys)
	}
	res := l.run(0, window)
	lm := layerSet{}
	if traced {
		lm.counters(before, readCounters(sys), res)
		lm.replays(sys, in, w)
		lm.setups(setups)
	}
	mismatches, err := checkAnswers(sys, in, w)
	if err != nil {
		return fmt.Errorf("answer check: %w", err)
	}

	var m []metric
	var rec *recorder
	var tres windowResult
	if traced {
		// The traced window runs on a set-up of its own, so that the
		// untraced window above pays nothing for the wrappers.
		sys.close()
		rec = &recorder{}
		if sys, _, err = setUp(in, dir, setupRuns, rec); err != nil {
			return err
		}
		runtime.GC()
		l = newLoad(sys, in, w)
		l.run(warmIters[w], 0)
		l.rec = rec
		rec.on.Store(true)
		tres = l.run(0, window)
		rec.on.Store(false)
		lm.spans(rec, res, tres)
		m = lm.list()
	} else {
		m = endToEnd(setups, res)
	}

	out := bufio.NewWriter(os.Stdout)
	printEnv(out, in, w, seed, sys, setups[0])
	tally := res.clientResult
	printRequests(out, "untraced", res)
	if traced {
		printRequests(out, "traced", tres)
		tally.add(tres.clientResult)
		path := filepath.Join(buildDir, "spans-"+w+".csv")
		if err := writeSpans(path, rec.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
		fmt.Fprintf(out, "spans %d written to %s; traced window pairs_per_s=%.0f\n", len(rec.spans), path, tres.rate())
	}
	fmt.Fprintf(out, "check %d pairs against BFS: %d mismatches\n", len(in.check), mismatches)
	for _, x := range m {
		fmt.Fprintf(out, "metric %-34s %16.6f %s%s\n", x.Name, x.Value, x.Unit, x.Note)
	}
	if err := writeResult(out, mismatches == 0, tally, m); err != nil {
		return err
	}
	if err := out.Flush(); err != nil {
		return err
	}
	if mismatches > 0 {
		return fmt.Errorf("%d of %d check pairs answered wrong", mismatches, len(in.check))
	}
	return nil
}

// metric is one printed measurement. Note is shown in the human report
// only.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResult prints the final JSON line.
func writeResult(out *bufio.Writer, correct bool, tally clientResult, m []metric) error {
	ms := make(map[string]jsonMetric, len(m))
	for _, x := range m {
		ms[x.Name] = jsonMetric{Value: x.Value, Unit: x.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, tally.attempted, tally.failed + tally.refused, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// printRequests prints one window's request accounting.
func printRequests(out *bufio.Writer, name string, r windowResult) {
	fmt.Fprintf(out, "requests %s attempted=%d succeeded=%d failed=%d refused=%d error_ratio=%.6f window=%s\n",
		name, r.attempted, r.attempted-r.failed-r.refused, r.failed, r.refused,
		float64(r.failed+r.refused)/float64(max(r.attempted, 1)), r.elapsed.Round(time.Millisecond))
}

// printEnv records what the numbers were measured on.
func printEnv(out *bufio.Writer, in *inputs, w string, seed int64, sys *system, st setupTimes) {
	cacheCap := 0
	if len(sys.servers) > 0 {
		cacheCap = sys.servers[0].Stats().Cache.Capacity
	}
	env := map[string]any{
		"workload":       w,
		"why":            workloads[w],
		"seed":           seed,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"cpu":            cpuModel(),
		"vertices":       in.g.NumVertices(),
		"edges":          in.g.DAGEdges(),
		"index_ints":     st.indexInts,
		"cache_capacity": cacheCap,
		"zipf_universe":  len(in.universe),
		"clients":        clients,
		"replicas":       len(sys.servers),
	}
	b, _ := json.Marshal(env)
	fmt.Fprintf(out, "env %s\n", b)
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

// endToEnd computes the metrics a user of the system sees, over every
// request that finished in the window. A failed or refused request is a
// sample of failedLatency, above every successful one.
func endToEnd(setups []setupTimes, res windowResult) []metric {
	var setup []float64
	for _, st := range setups {
		setup = append(setup, st.total.Seconds())
	}
	n := func(ss []sample) string { return fmt.Sprintf(" n=%d", len(ss)) }
	return []metric{
		{"setup_s", median(setup), "s", fmt.Sprintf(" median of %d", len(setup))},
		{"pairs_per_s", res.rate(), "1/s", fmt.Sprintf(" %d pairs in %s", res.pairs(), res.elapsed.Round(time.Millisecond))},
		{"batch_p50_ms", quantileMs(res.batch, 0.50), "ms", n(res.batch)},
		{"batch_p99_ms", quantileMs(res.batch, 0.99), "ms", n(res.batch)},
		{"get_p50_ms", quantileMs(res.get, 0.50), "ms", n(res.get)},
		{"get_p99_ms", quantileMs(res.get, 0.99), "ms", n(res.get)},
		{"peak_rss_mb", peakRSSMB(), "MB", ""},
		{"snapshot_mb", float64(setups[0].snapshotBytes) / 1e6, "MB", ""},
	}
}
