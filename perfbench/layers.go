package main

// Per-layer metrics for the traced run: counter differences across the
// untraced window, replays of single layers on fresh pairs from the
// workload's own stream, and span arithmetic over the traced window.

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/mux"
	"repro/internal/observe"
	"repro/internal/server"
	"repro/internal/wireproto"
)

// counters is every layer's counters at one instant.
type counters struct {
	at      time.Time
	cpu     time.Duration // process user+system time
	runtime []metrics.Sample
	router  fleet.FleetStats
	servers []server.Stats
	hits    map[string]int64 // observer hits summed over the oracles
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readCounters(sys *system) counters {
	c := counters{at: time.Now(), hits: map[string]int64{}}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	for _, name := range runtimeMetrics {
		c.runtime = append(c.runtime, metrics.Sample{Name: name})
	}
	metrics.Read(c.runtime)
	c.router = sys.router.Stats(context.Background()).Fleet
	for _, s := range sys.servers {
		c.servers = append(c.servers, s.Stats())
	}
	for _, o := range sys.oracles {
		for k, v := range o.Observers().HitsMap() {
			c.hits[k] += v
		}
	}
	return c
}

func (c counters) runtimeValue(i int) float64 {
	v := c.runtime[i].Value
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer lists every per-layer metric with its unit, in report
// order.
var perLayer = []struct{ name, unit string }{
	{"fleet.http_ms", "ms"},
	{"fleet.self_ms", "ms"},
	{"fleet.route_ns_per_pair", "ns"},
	{"fleet.subbatches_per_batch", "count"},
	{"fleet.replica_skew", "ratio"},
	{"fleet.retries", "count"},
	{"fleet.failovers", "count"},
	{"fleet.upstream_429", "count"},
	{"mux.roundtrip_us", "us"},
	{"mux.http_fallback_ratio", "ratio"},
	{"mux.bytes_per_pair", "B"},
	{"wireproto.codec_ns_per_pair", "ns"},
	{"server.self_ms", "ms"},
	{"server.batch_ns_per_pair", "ns"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_entries", "count"},
	{"server.rejected", "count"},
	{"server.timed_out", "count"},
	{"observe.query_ns", "ns"},
	{"observe.decided_ratio", "ratio"},
	{"observe.hits.degenerate", "count"},
	{"observe.hits.topo_interval", "count"},
	{"observe.hits.supportive_positive", "count"},
	{"observe.hits.supportive_negative", "count"},
	{"core.probe_ns", "ns"},
	{"core.build_s", "s"},
	{"core.index_ints", "count"},
	{"snapshot.save_s", "s"},
	{"snapshot.load_ms", "ms"},
	{"runtime.alloc_bytes_per_pair", "B"},
	{"runtime.gc_cpu_ratio", "ratio"},
	{"runtime.cpu_busy_ratio", "ratio"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// layerSet collects per-layer metrics by name.
type layerSet map[string]metric

func (ls layerSet) add(name string, v float64, note string) {
	ls[name] = metric{Name: name, Value: v, Note: note}
}

// list returns every per-layer metric in perLayer order.
func (ls layerSet) list() []metric {
	out := make([]metric, 0, len(perLayer))
	for _, pl := range perLayer {
		x := ls[pl.name]
		x.Name, x.Unit = pl.name, pl.unit
		out = append(out, x)
	}
	return out
}

// setups adds the set-up layers' times, each the median over set-ups.
func (ls layerSet) setups(setups []setupTimes) {
	var build, save, load []float64
	for _, st := range setups {
		build = append(build, st.build.Seconds())
		save = append(save, st.save.Seconds())
		load = append(load, float64(st.load)/1e6)
	}
	ls.add("core.build_s", median(build), "")
	ls.add("core.index_ints", float64(setups[0].indexInts), "")
	ls.add("snapshot.save_s", median(save), "")
	ls.add("snapshot.load_ms", median(load), "")
}

// counters adds the differences of the program's own counters across
// the untraced window res.
func (ls layerSet) counters(before, after counters, res windowResult) {
	rd := func(f func(fleet.FleetStats) int64) float64 { return float64(f(after.router) - f(before.router)) }
	ls.add("fleet.subbatches_per_batch", ratio(rd(func(f fleet.FleetStats) int64 { return f.SubBatches }),
		rd(func(f fleet.FleetStats) int64 { return f.BatchRequests })), "")
	ls.add("fleet.retries", rd(func(f fleet.FleetStats) int64 { return f.Retries }), "")
	ls.add("fleet.failovers", rd(func(f fleet.FleetStats) int64 { return f.Failovers }), "")
	ls.add("fleet.upstream_429", rd(func(f fleet.FleetStats) int64 { return f.Upstream429 }), "")

	var qMin, qMax int64 = -1, 0
	var hits, lookups, entries, rejected, timedOut int64
	for i := range after.servers {
		a, b := after.servers[i], before.servers[i]
		q := a.Server.Queries - b.Server.Queries
		if qMin < 0 || q < qMin {
			qMin = q
		}
		qMax = max(qMax, q)
		hits += a.Cache.Hits - b.Cache.Hits
		lookups += a.Cache.Hits + a.Cache.Misses - b.Cache.Hits - b.Cache.Misses
		entries += int64(a.Cache.Entries)
		rejected += a.Server.Rejected - b.Server.Rejected
		timedOut += a.Server.TimedOut - b.Server.TimedOut
	}
	ls.add("fleet.replica_skew", ratio(float64(qMax), float64(qMin)), fmt.Sprintf(" max=%d min=%d queries", qMax, qMin))
	ls.add("server.cache_hit_ratio", ratio(float64(hits), float64(lookups)), fmt.Sprintf(" lookups=%d", lookups))
	ls.add("server.cache_entries", float64(entries), "")
	ls.add("server.rejected", float64(rejected), "")
	ls.add("server.timed_out", float64(timedOut), "")

	for _, k := range observe.Kinds() {
		ls.add("observe.hits."+k.String(), float64(after.hits[k.String()]-before.hits[k.String()]), "")
	}

	wall := after.at.Sub(before.at)
	ls.add("runtime.alloc_bytes_per_pair", ratio(after.runtimeValue(0)-before.runtimeValue(0), float64(res.pairs())), "")
	gc := after.runtimeValue(1) - before.runtimeValue(1)
	busy := (after.runtimeValue(2) - before.runtimeValue(2)) - (after.runtimeValue(3) - before.runtimeValue(3))
	ls.add("runtime.gc_cpu_ratio", ratio(gc, busy), "")
	ls.add("runtime.cpu_busy_ratio", ratio(float64(after.cpu-before.cpu), float64(wall)*float64(runtime.NumCPU())), "")
}

// spans adds the span arithmetic of the traced window tres, the
// transport split its replica wrappers counted, and the tracing
// overhead against the untraced window res.
func (ls layerSet) spans(rec *recorder, res, tres windowResult) {
	spans := rec.spans
	children := link(spans)
	var edge, routerSelf, replicaSelf latencies
	for i, s := range spans {
		switch s.Name {
		case spanClient:
			for _, k := range children[i] {
				edge = append(edge, s.dur()-spans[k].dur())
			}
		case spanRouter:
			kids := make([]span, 0, len(children[i]))
			for _, k := range children[i] {
				kids = append(kids, spans[k])
			}
			routerSelf = append(routerSelf, selfTime(s, kids))
		case spanReplicaHTP, spanReplicaMux:
			replicaSelf = append(replicaSelf, selfTime(s, nil))
		}
	}
	sn := func(d latencies) string { return fmt.Sprintf(" n=%d spans", len(d)) }
	ls.add("fleet.http_ms", ms(percentile(edge, 0.5)), sn(edge))
	ls.add("fleet.self_ms", ms(percentile(routerSelf, 0.5)), sn(routerSelf))
	ls.add("server.self_ms", ms(percentile(replicaSelf, 0.5)), sn(replicaSelf))

	httpSubs := float64(rec.httpSubBatches.Load())
	muxSubs := float64(rec.muxSubBatches.Load())
	ls.add("mux.http_fallback_ratio", ratio(httpSubs, httpSubs+muxSubs), fmt.Sprintf(" http=%.0f mux=%.0f", httpSubs, muxSubs))
	ls.add("bench.trace_overhead_ratio", 1-ratio(tres.rate(), res.rate()),
		fmt.Sprintf(" untraced=%.0f traced=%.0f pairs/s", res.rate(), tres.rate()))
}

// replays adds the single-layer replays, run on the untraced set-up
// with the cache as the window left it.
func (ls layerSet) replays(sys *system, in *inputs, w string) {
	rp := replayFleet(sys, in, w)
	ls.add("fleet.route_ns_per_pair", rp.routeNs, fmt.Sprintf(" batch=%d", rp.batch))
	ls.add("mux.roundtrip_us", rp.muxUs, fmt.Sprintf(" sub-batch=%d", rp.sub))
	ls.add("mux.bytes_per_pair", rp.muxBytes, "")
	ls.add("wireproto.codec_ns_per_pair", rp.codecNs, fmt.Sprintf(" sub-batch=%d", rp.sub))
	ls.add("server.batch_ns_per_pair", rp.serverNs, fmt.Sprintf(" sub-batch=%d", rp.sub))

	ob := replayOracle(sys, in, w)
	ls.add("observe.query_ns", ob.queryNs, fmt.Sprintf(" pairs=%d", ob.pairs))
	ls.add("observe.decided_ratio", ratio(float64(ob.decided), float64(ob.pairs)), "")
	ls.add("core.probe_ns", ob.probeNs, fmt.Sprintf(" undecided=%d", ob.pairs-ob.decided))
}

// replay holds the fleet layers' replayed costs.
type replay struct {
	batch, sub int
	routeNs    float64
	muxUs      float64
	muxBytes   float64
	codecNs    float64
	serverNs   float64
}

// Replay sizes: enough calls for a stable median, few enough to finish
// in about a second per layer.
const (
	replayBulkCalls  = 64
	replaySmallCalls = 2000
	replayPairs      = 1 << 16
	replayRounds     = 5
)

// replayFleet times the router, one mux connection, the frame codec and
// one replica's batch path on fresh pairs of the workload's batch and
// sub-batch sizes.
func replayFleet(sys *system, in *inputs, w string) replay {
	rp := replay{batch: batchPairs, sub: batchPairs / replicas}
	calls := replayBulkCalls
	if w == "fleet-interactive" {
		rp.batch, rp.sub, calls = smallBatch, smallBatch, replaySmallCalls
	}
	src := in.newSource(w, replayID)
	ctx := context.Background()
	p32 := make([][2]uint32, rp.batch)
	p64 := make([][2]uint64, rp.batch)

	var route []float64
	for i := 0; i < calls; i++ {
		src.fill(p32)
		for j, p := range p32 {
			p64[j] = [2]uint64{uint64(p[0]), uint64(p[1])}
		}
		t0 := time.Now()
		if _, err := sys.router.Batch(ctx, p64); err != nil {
			continue
		}
		route = append(route, float64(time.Since(t0))/float64(rp.batch))
	}
	rp.routeNs = median(route)

	sub := p32[:rp.sub]
	out := make([]bool, rp.sub)
	fp := server.FingerprintString(sys.oracles[0].Graph().Fingerprint())
	if cn, err := mux.Dial(ctx, sys.muxAddrs[0], mux.ClientConfig{Fingerprint: fp}); err == nil {
		tr := sys.muxSrvs[0].Traffic()
		b0 := tr.BytesRx.Load() + tr.BytesTx.Load()
		var rtt latencies
		for i := 0; i < calls; i++ {
			src.fill(sub)
			t0 := time.Now()
			if cn.Batch(ctx, sub, out, "") == nil {
				rtt = append(rtt, time.Since(t0))
			}
		}
		rp.muxBytes = ratio(float64(tr.BytesRx.Load()+tr.BytesTx.Load()-b0), float64(len(rtt)*rp.sub))
		rp.muxUs = float64(percentile(rtt, 0.5)) / 1e3
		_ = cn.Close()
	}

	req := make([]byte, wireproto.RequestSize(rp.sub))
	resp := make([]byte, wireproto.ResponseSize(rp.sub))
	dec := make([][2]uint32, rp.sub)
	var codec []float64
	for i := 0; i < calls; i++ {
		src.fill(sub)
		for j := range out {
			out[j] = (sub[j][0]+sub[j][1])&1 == 0
		}
		t0 := time.Now()
		n := wireproto.EncodeRequest(req, sub)
		err1 := wireproto.DecodeRequest(req[:n], dec)
		k := wireproto.EncodeResponse(resp, out)
		err2 := wireproto.DecodeResponse(resp[:k], out)
		if err1 == nil && err2 == nil {
			codec = append(codec, float64(time.Since(t0))/float64(rp.sub))
		}
	}
	rp.codecNs = median(codec)

	var srv []float64
	for i := 0; i < calls; i++ {
		src.fill(sub)
		t0 := time.Now()
		if _, err := sys.servers[0].ReachableBatch(ctx, sub); err == nil {
			srv = append(srv, float64(time.Since(t0))/float64(rp.sub))
		}
	}
	rp.serverNs = median(srv)
	return rp
}

// oracleReplay holds the observer stack's and the DL probe's replayed
// costs.
type oracleReplay struct {
	pairs, decided   int
	queryNs, probeNs float64
}

// replayOracle times Stack.Query over fresh pairs of the workload's
// stream, then Oracle.Reachable minus Stack.Query on the pairs the
// stack leaves undecided: the DL label probe's share.
func replayOracle(sys *system, in *inputs, w string) oracleReplay {
	o := sys.oracles[0]
	st := o.Observers()
	g := o.Graph()
	src := in.newSource(w, replayID+1)
	var dag, undecidedDAG, undecided [][2]uint32
	for len(dag) < replayPairs {
		p := src.next()
		cu, cv := g.MapVertex(p[0]), g.MapVertex(p[1])
		if cu == cv {
			continue
		}
		dag = append(dag, [2]uint32{cu, cv})
		if st.Query(cu, cv) == observe.Unknown {
			undecidedDAG = append(undecidedDAG, [2]uint32{cu, cv})
			undecided = append(undecided, p)
		}
	}
	r := oracleReplay{pairs: len(dag), decided: len(dag) - len(undecided)}
	timeQuery := func(ps [][2]uint32) float64 {
		var xs []float64
		for i := 0; i < replayRounds; i++ {
			t0 := time.Now()
			for _, p := range ps {
				st.Query(p[0], p[1])
			}
			xs = append(xs, float64(time.Since(t0))/float64(len(ps)))
		}
		return median(xs)
	}
	r.queryNs = timeQuery(dag)
	if len(undecided) > 0 {
		var xs []float64
		for i := 0; i < replayRounds; i++ {
			t0 := time.Now()
			for _, p := range undecided {
				o.Reachable(p[0], p[1])
			}
			xs = append(xs, float64(time.Since(t0))/float64(len(undecided)))
		}
		r.probeNs = median(xs) - timeQuery(undecidedDAG)
	}
	return r
}

// checkAnswers sends the check set down the workload's own path and
// counts answers that differ from BFS.
func checkAnswers(sys *system, in *inputs, w string) (int, error) {
	pairs := make([][2]uint32, len(in.check))
	for i, c := range in.check {
		pairs[i] = [2]uint32{c.u, c.v}
	}
	got := make([]bool, len(pairs))
	l := newLoad(sys, in, w)
	step, start := batchPairs, 0
	if w == "fleet-interactive" {
		// Single queries for the first pairs, so both router paths are
		// checked.
		step, start = smallBatch, 64
		for i := 0; i < start; i++ {
			p := pairs[i]
			path := fmt.Sprintf("/v1/reachable?u=%d&v=%d", p[0], p[1])
			_, status, err := l.do(0, http.MethodGet, path, nil)
			if err != nil || status != http.StatusOK {
				return 0, fmt.Errorf("GET %s: status %d: %v", path, status, err)
			}
			ans, ok := parseReachable(l.scr[0].resp.Bytes())
			if !ok {
				return 0, fmt.Errorf("GET %s: unreadable answer %q", path, l.scr[0].resp.String())
			}
			got[i] = ans
		}
	}
	for lo := start; lo < len(pairs); lo += step {
		hi := min(lo+step, len(pairs))
		_, status, err := l.do(0, http.MethodPost, "/v1/batch", appendBatchJSON(nil, pairs[lo:hi]))
		if err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("POST /v1/batch: status %d: %v", status, err)
		}
		if !parseBatchResults(l.scr[0].resp.Bytes(), got[lo:hi]) {
			return 0, fmt.Errorf("POST /v1/batch: unreadable answer")
		}
	}
	bad := 0
	for i, c := range in.check {
		if got[i] != c.want {
			bad++
		}
	}
	return bad, nil
}
