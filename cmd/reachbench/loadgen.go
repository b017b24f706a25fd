package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	reach "repro"
	"repro/internal/obs"
)

// loadGen drives a running reachd in a closed loop: each client POSTs a
// random batch, waits for the answer, and immediately posts the next.
// Closed-loop throughput is the number later scaling PRs must move.
type loadGen struct {
	base     string
	graph    string // edge-list file to sample real vertex IDs from
	clients  int
	batch    int
	duration time.Duration
	seed     int64
}

type statsPayload struct {
	Graph struct {
		Vertices int `json:"vertices"`
	} `json:"graph"`
	Index struct {
		Method string `json:"method"`
	} `json:"index"`
	// Fleet is present when the target is a reachrouter rather than a
	// single reachd; its method fills in for the absent index section.
	Fleet struct {
		Method          string `json:"method"`
		ReplicasHealthy int    `json:"replicas_healthy"`
	} `json:"fleet"`
	Cache struct {
		Hits    int64   `json:"hits"`
		Misses  int64   `json:"misses"`
		HitRate float64 `json:"hit_rate"`
	} `json:"cache"`
}

// scrapeBatchHist reads the target's server-side batch-request latency
// histogram from /metrics. Best-effort: a target without /metrics (or
// an unparsable exposition) just returns nil and the run reports
// client-side latency only.
func (lg *loadGen) scrapeBatchHist() *obs.ScrapedHist {
	resp, err := http.Get(lg.base + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	h, err := obs.ParseHistogram(resp.Body, "reach_http_request_seconds", obs.Labels{"endpoint": "batch"})
	if err != nil {
		return nil
	}
	return h
}

func (lg *loadGen) fetchStats() (statsPayload, error) {
	var st statsPayload
	resp, err := http.Get(lg.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// vertexIDs returns the ID universe to query. reachd's API speaks the
// edge-list file's original IDs, so with -graph the exact IDs are
// sampled from the file; without it, dense 0..n-1 is assumed, which
// only matches files whose IDs are already dense.
func (lg *loadGen) vertexIDs(vertices int) ([]uint64, error) {
	if lg.graph == "" {
		fmt.Println("note: no -graph given; assuming vertex IDs are dense 0..n-1")
		ids := make([]uint64, vertices)
		for i := range ids {
			ids[i] = uint64(i)
		}
		return ids, nil
	}
	f, err := os.Open(lg.graph)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, orig, err := reach.ReadGraph(f)
	if err != nil {
		return nil, err
	}
	if len(orig) != vertices {
		return nil, fmt.Errorf("%s has %d vertices but the server reports %d — different graph?",
			lg.graph, len(orig), vertices)
	}
	ids := make([]uint64, len(orig))
	for i, raw := range orig {
		ids[i] = uint64(raw)
	}
	return ids, nil
}

func (lg *loadGen) run() error {
	st, err := lg.fetchStats()
	if err != nil {
		return fmt.Errorf("probing server: %w", err)
	}
	if st.Graph.Vertices == 0 {
		return fmt.Errorf("server reports an empty graph")
	}
	ids, err := lg.vertexIDs(st.Graph.Vertices)
	if err != nil {
		return err
	}
	// Sampled IDs must name real vertices; if the server rejects one, the
	// assumed ID space is wrong (pass -graph) and a run would measure
	// only the unknown-vertex short-circuit. Probe both ends of the
	// assumed range: a sparse ID set can contain 0 yet not n-1.
	for _, id := range []uint64{ids[0], ids[len(ids)-1]} {
		probe, err := http.Get(fmt.Sprintf("%s/v1/reachable?u=%d&v=%d", lg.base, id, id))
		if err != nil {
			return fmt.Errorf("probing sampled vertex ID: %w", err)
		}
		io.Copy(io.Discard, probe.Body)
		probe.Body.Close()
		if probe.StatusCode != http.StatusOK {
			return fmt.Errorf("server rejected sampled vertex ID %d (HTTP %d): the graph's IDs are not dense — pass -graph with the served edge-list file", id, probe.StatusCode)
		}
	}
	method := st.Index.Method
	target := "single node"
	if method == "" && st.Fleet.Method != "" {
		method = st.Fleet.Method
		target = fmt.Sprintf("fleet of %d", st.Fleet.ReplicasHealthy)
	}
	fmt.Printf("load-generating against %s (%s): method=%s vertices=%d clients=%d batch=%d duration=%s\n",
		lg.base, target, method, st.Graph.Vertices, lg.clients, lg.batch, lg.duration)

	var (
		queries  atomic.Int64
		requests atomic.Int64
		rejected atomic.Int64 // 429s from the server's admission gate
		failures atomic.Int64
		bytesOut atomic.Int64 // request-body bytes sent
		bytesIn  atomic.Int64 // response-body bytes drained
		wg       sync.WaitGroup
	)
	// One shared lock-free histogram of successful request latencies: a
	// few KB of fixed memory no matter how long the soak runs, every
	// sample counted (no reservoir sampling), and quantiles within ~3%
	// relative error — the same structure the server itself records into,
	// so client-side and server-side percentiles are comparable.
	var lat obs.Histogram
	// Server-side view of the same window, scraped from /metrics before
	// and after the run and differenced (nil if the target has none).
	serverStart := lg.scrapeBatchHist()
	deadline := time.Now().Add(lg.duration)
	start := time.Now()
	for c := 0; c < lg.clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			client := &http.Client{Timeout: 30 * time.Second}
			pairs := make([][2]uint64, lg.batch)
			// Drain before closing so the transport can reuse the
			// connection (otherwise every request pays a TCP handshake),
			// counting the drained bytes as response traffic.
			drain := func(resp *http.Response) {
				n, _ := io.Copy(io.Discard, resp.Body)
				bytesIn.Add(n)
				resp.Body.Close()
			}
			for time.Now().Before(deadline) {
				for i := range pairs {
					pairs[i] = [2]uint64{ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]}
				}
				payload, _ := json.Marshal(struct {
					Pairs [][2]uint64 `json:"pairs"`
				}{pairs})
				bytesOut.Add(int64(len(payload)))
				reqStart := time.Now()
				resp, err := client.Post(lg.base+"/v1/batch", "application/json", bytes.NewReader(payload))
				if err != nil {
					failures.Add(1)
					// Back off instead of busy-looping on a dead server.
					time.Sleep(100 * time.Millisecond)
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					lat.RecordSince(reqStart)
					queries.Add(int64(lg.batch))
					requests.Add(1)
				case http.StatusTooManyRequests:
					// The admission gate shed this request; back off so a
					// closed loop doesn't hammer an overloaded server. A
					// Retry-After hint raises the backoff to a bounded
					// second (the header is whole seconds, so any valid
					// hint caps there).
					rejected.Add(1)
					backoff := 10 * time.Millisecond
					if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
						backoff = time.Second
					}
					drain(resp)
					time.Sleep(backoff)
					continue
				default:
					failures.Add(1)
				}
				drain(resp)
			}
		}(lg.seed + int64(c))
	}
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Printf("done: %d requests, %d queries, %d rejected (429), %d failures in %s\n",
		requests.Load(), queries.Load(), rejected.Load(), failures.Load(), elapsed.Round(time.Millisecond))
	fmt.Printf("throughput: %.0f queries/sec (%.1f requests/sec)\n",
		float64(queries.Load())/elapsed.Seconds(),
		float64(requests.Load())/elapsed.Seconds())
	if attempts := requests.Load() + rejected.Load() + failures.Load(); attempts > 0 {
		fmt.Printf("wire: %d bytes/op sent, %d bytes/op received\n",
			bytesOut.Load()/attempts, bytesIn.Load()/attempts)
	}
	if snap := lat.Snapshot(); snap.Count > 0 {
		q := func(p float64) time.Duration {
			return time.Duration(snap.Quantile(p)).Round(time.Microsecond)
		}
		fmt.Printf("latency (client):  p50 %s  p99 %s  max %s (%d samples)\n",
			q(0.50), q(0.99), time.Duration(snap.Max).Round(time.Microsecond), snap.Count)
		// Server-side percentiles for the same window: the difference of
		// the /metrics batch-request histogram across the run. The gap
		// between the two rows is what the wire (and the client's own
		// scheduling) costs.
		if end := lg.scrapeBatchHist(); end != nil && serverStart != nil {
			if err := end.Sub(serverStart); err == nil && end.Count > 0 {
				sq := func(p float64) time.Duration {
					return time.Duration(end.Quantile(p) * float64(time.Second)).Round(time.Microsecond)
				}
				fmt.Printf("latency (server):  p50 %s  p99 %s  (%d requests, from /metrics)\n",
					sq(0.50), sq(0.99), end.Count)
			}
		}
	}
	if attempts := requests.Load() + rejected.Load() + failures.Load(); attempts > 0 && rejected.Load() > 0 {
		fmt.Printf("rejection rate: %.1f%% of attempts shed by the admission gate\n",
			100*float64(rejected.Load())/float64(attempts))
	}
	// Report this run's cache behaviour, not the daemon's lifetime
	// counters: diff against the snapshot taken before the run.
	if end, err := lg.fetchStats(); err == nil {
		hits := end.Cache.Hits - st.Cache.Hits
		misses := end.Cache.Misses - st.Cache.Misses
		rate := 0.0
		if hits+misses > 0 {
			rate = float64(hits) / float64(hits+misses)
		}
		fmt.Printf("server cache this run: %d hits, %d misses, hit rate %.1f%%\n",
			hits, misses, 100*rate)
	}
	if failures.Load() > 0 {
		return fmt.Errorf("%d requests failed", failures.Load())
	}
	return nil
}
