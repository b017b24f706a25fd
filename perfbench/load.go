package main

// The closed-loop clients. Each client sends its next request only when
// the previous one has answered, speaking JSON over loopback HTTP to the
// router's edge.

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

const clients = 2

// clientResult is one client's tally for one window.
type clientResult struct {
	attempted, failed, refused int64
	batch, get                 []sample
}

// add merges o into r.
func (r *clientResult) add(o clientResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.refused += o.refused
	r.batch = append(r.batch, o.batch...)
	r.get = append(r.get, o.get...)
}

// windowResult merges the clients' tallies.
type windowResult struct {
	clientResult
	elapsed time.Duration // until the last client stopped
}

func (r windowResult) pairs() int64 {
	var n int64
	for _, s := range r.batch {
		n += int64(s.pairs)
	}
	for _, s := range r.get {
		n += int64(s.pairs)
	}
	return n
}

// rate is pairs answered per second over the whole window, counting
// the requests in flight when it closed.
func (r windowResult) rate() float64 {
	return float64(r.pairs()) / r.elapsed.Seconds()
}

// load is one window's shared state.
type load struct {
	sys *system
	in  *inputs
	w   string
	rec *recorder // non-nil on a traced set-up: send trace IDs
	hc  *http.Client
	// Each client has two lanes, c and c+clients, each with its own
	// stream and buffers; fleet-bulk's single queries use the second.
	srcs [2 * clients]*pairSource
	scr  [2 * clients]clientBufs
}

func newLoad(sys *system, in *inputs, w string) *load {
	l := &load{sys: sys, in: in, w: w, hc: newHTTPClient()}
	for c := range l.srcs {
		l.srcs[c] = in.newSource(w, c)
	}
	return l
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   failedLatency,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients, DisableCompression: true},
	}
}

// run drives the clients, each calling step in a closed loop for iters
// iterations, or for span when iters is 0, and returns their merged
// tally.
func (l *load) run(iters int, span time.Duration) windowResult {
	start := time.Now()
	until := start.Add(span)
	var out windowResult
	res := make([]clientResult, clients)
	ends := make([]time.Time, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; iters <= 0 || i < iters; i++ {
				if iters <= 0 && !time.Now().Before(until) {
					break
				}
				l.step(c, &res[c])
			}
			ends[c] = time.Now()
		}(c)
	}
	wg.Wait()
	for c, r := range res {
		out.add(r)
		out.elapsed = max(out.elapsed, ends[c].Sub(start))
	}
	return out
}

// step sends one iteration of the workload's traffic.
//
// On fleet-bulk a single query goes out alongside each batch, so it
// always meets bulk work in flight. Sent after the batch instead, it
// found a free core most of the time and about 1% of single queries
// waited 3-9 ms behind CPU-bound batch work: the p99 sat on that edge
// and jumped between 0.7 and 3 ms from run to run.
func (l *load) step(c int, r *clientResult) {
	switch l.w {
	case "fleet-bulk":
		var g clientResult
		done := make(chan struct{})
		go func() {
			defer close(done)
			l.getStep(c+clients, &g)
		}()
		l.postStep(c, r, batchPairs)
		<-done
		r.add(g)
	default:
		l.getStep(c, r)
		l.postStep(c, r, smallBatch)
	}
}

// clientBufs is one client's buffers, reused across requests so the
// clients allocate little of their own in the window.
type clientBufs struct {
	pairs [][2]uint32
	out   []bool
	body  []byte
	resp  bytes.Buffer
	seq   int
}

func (l *load) postStep(c int, r *clientResult, n int) {
	s := &l.scr[c]
	if cap(s.pairs) < n {
		s.pairs, s.out = make([][2]uint32, n), make([]bool, n)
	}
	pairs := s.pairs[:n]
	l.srcs[c].fill(pairs)
	s.body = appendBatchJSON(s.body[:0], pairs)
	d, status, err := l.do(c, http.MethodPost, "/v1/batch", s.body)
	ok := tallyStatus(r, status, err)
	if ok && !parseBatchResults(s.resp.Bytes(), s.out[:n]) {
		r.failed++
		ok = false
	}
	r.batch = append(r.batch, newSample(d, ok, n))
}

// newSample records a request that took d, answering n pairs if it
// succeeded.
func newSample(d time.Duration, ok bool, n int) sample {
	if !ok {
		return sample{d: failedLatency}
	}
	return sample{d: d, pairs: n}
}

func (l *load) getStep(c int, r *clientResult) {
	s := &l.scr[c]
	p := l.srcs[c].next()
	path := "/v1/reachable?u=" + strconv.FormatUint(uint64(p[0]), 10) + "&v=" + strconv.FormatUint(uint64(p[1]), 10)
	d, status, err := l.do(c, http.MethodGet, path, nil)
	ok := tallyStatus(r, status, err)
	if _, parsed := parseReachable(s.resp.Bytes()); ok && !parsed {
		r.failed++
		ok = false
	}
	r.get = append(r.get, newSample(d, ok, 1))
}

// tallyStatus counts an attempted request, and a refused (429, 503) or
// failed (transport error, any other non-200) one, and reports whether
// it succeeded.
func tallyStatus(r *clientResult, status int, err error) bool {
	r.attempted++
	switch {
	case err != nil:
		r.failed++
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		r.refused++
	case status != http.StatusOK:
		r.failed++
	default:
		return true
	}
	return false
}

// do sends one request to the router and reads the whole answer into
// the client's response buffer, timing both.
func (l *load) do(c int, method, path string, body []byte) (time.Duration, int, error) {
	s := &l.scr[c]
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, l.sys.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var trace string
	if l.rec != nil {
		s.seq++
		trace = "c" + strconv.Itoa(c) + "-" + strconv.Itoa(s.seq)
		req.Header.Set(obs.TraceHeader, trace)
	}
	t0 := time.Now()
	resp, err := l.hc.Do(req)
	if err != nil {
		return time.Since(t0), 0, err
	}
	s.resp.Reset()
	_, err = s.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if l.rec != nil {
		l.rec.add(spanClient, trace, t0, t1)
	}
	return t1.Sub(t0), resp.StatusCode, err
}

// appendBatchJSON appends {"pairs":[[u,v],...]} to b.
func appendBatchJSON(b []byte, pairs [][2]uint32) []byte {
	b = append(b, `{"pairs":[`...)
	for i, p := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendUint(b, uint64(p[0]), 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, uint64(p[1]), 10)
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// parseBatchResults reads the "results" array of a /v1/batch answer
// into out and reports whether it held exactly len(out) booleans.
func parseBatchResults(b []byte, out []bool) bool {
	i := bytes.Index(b, []byte(`"results":[`))
	if i < 0 {
		return false
	}
	b = b[i+len(`"results":[`):]
	n := 0
	for {
		b = bytes.TrimLeft(b, " \t\r\n,")
		switch {
		case bytes.HasPrefix(b, []byte("true")):
			if n == len(out) {
				return false
			}
			out[n] = true
			n++
			b = b[4:]
		case bytes.HasPrefix(b, []byte("false")):
			if n == len(out) {
				return false
			}
			out[n] = false
			n++
			b = b[5:]
		case bytes.HasPrefix(b, []byte("]")):
			return n == len(out)
		default:
			return false
		}
	}
}

// parseReachable reads the "reachable" field of a /v1/reachable answer.
func parseReachable(b []byte) (bool, bool) {
	i := bytes.Index(b, []byte(`"reachable":`))
	if i < 0 {
		return false, false
	}
	b = bytes.TrimLeft(b[i+len(`"reachable":`):], " ")
	switch {
	case bytes.HasPrefix(b, []byte("true")):
		return true, true
	case bytes.HasPrefix(b, []byte("false")):
		return false, true
	}
	return false, false
}
