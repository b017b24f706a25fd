package main

// Span recording for the traced run. Spans come only from the
// benchmark's own wrappers around the system's public entry points: the
// client's request, the router's and each replica's http.Handler, and
// each mux request/response frame pair on the replicas' stream
// listeners. Spans stay in memory until the run ends.

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wireproto"
)

// Span names, one per recorded layer boundary.
const (
	spanClient     = "client"
	spanRouter     = "router"
	spanReplicaHTP = "replica.http"
	spanReplicaMux = "replica.mux"
)

// span is one recorded interval. Parent is the index of the enclosing
// span in the recorder, or -1; it is filled in by link from the trace
// IDs once recording stops.
type span struct {
	Name   string
	Trace  string
	Start  time.Time
	End    time.Time
	Parent int
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder collects spans, and counts the sub-batches the replica
// wrappers see on each transport, while on.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span

	httpSubBatches atomic.Int64
	muxSubBatches  atomic.Int64
}

func (r *recorder) add(name, trace string, start, end time.Time) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Trace: trace, Start: start, End: end, Parent: -1})
	r.mu.Unlock()
}

// wrapHTTP records a span around every query request h serves.
// Replica wrappers also count batch sub-batches arriving over HTTP.
func (r *recorder) wrapHTTP(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		path := req.URL.Path
		if path != "/v1/reachable" && path != "/v1/batch" {
			h.ServeHTTP(w, req)
			return
		}
		if name == spanReplicaHTP && path == "/v1/batch" && r.on.Load() {
			r.httpSubBatches.Add(1)
		}
		t0 := time.Now()
		h.ServeHTTP(w, req)
		r.add(name, req.Header.Get(obs.TraceHeader), t0, time.Now())
	})
}

// wrapListener returns a listener whose connections report a span from
// each mux request frame's arrival to its response frame's departure.
func (r *recorder) wrapListener(ln net.Listener) net.Listener {
	return &tracedListener{Listener: ln, rec: r}
}

type tracedListener struct {
	net.Listener
	rec *recorder
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, rec: l.rec, arrived: make(map[uint32]arrival)}, nil
}

type arrival struct {
	at    time.Time
	trace string
}

// tracedConn follows the frame boundaries of both directions of one
// mux connection. The mux server reads on one goroutine and writes on
// another; arrived is shared between them.
type tracedConn struct {
	net.Conn
	rec    *recorder
	rx, tx frameScanner

	mu      sync.Mutex
	arrived map[uint32]arrival
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now()
		c.rx.feed(p[:n], func(stream uint32, trace string) {
			if c.rec.on.Load() {
				c.rec.muxSubBatches.Add(1)
			}
			c.mu.Lock()
			c.arrived[stream] = arrival{at: now, trace: trace}
			c.mu.Unlock()
		})
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		now := time.Now()
		c.tx.feed(p[:n], func(stream uint32, _ string) {
			c.mu.Lock()
			a, ok := c.arrived[stream]
			delete(c.arrived, stream)
			c.mu.Unlock()
			if ok {
				c.rec.add(spanReplicaMux, a.trace, a.at, now)
			}
		})
	}
	return n, err
}

// maxScanFrame bounds the frame length the scanner accepts; the mux
// server enforces its own, tighter limit.
const maxScanFrame = 1 << 30

// frameScanner splits one direction of a mux byte stream into
// envelope-prefixed frames, reporting each completed frame's stream ID
// and trace ID. The first frame in each direction is the handshake and
// is not reported.
type frameScanner struct {
	env     [wireproto.EnvelopeSize]byte
	envN    int
	traceLn [4]byte
	traceN  int
	trace   []byte
	want    int // trace bytes still to read, -1 before the length is known
	skip    int // frame bytes still to skip
	stream  uint32
	frames  int
	inFrame bool
	hasTr   bool
	broken  bool
}

func (f *frameScanner) feed(p []byte, done func(stream uint32, trace string)) {
	for len(p) > 0 && !f.broken {
		switch {
		case !f.inFrame:
			k := copy(f.env[f.envN:], p)
			f.envN += k
			p = p[k:]
			if f.envN < wireproto.EnvelopeSize {
				return
			}
			stream, flags, frameLen, err := wireproto.ParseEnvelope(f.env[:], maxScanFrame)
			if err != nil {
				f.broken = true
				return
			}
			f.stream, f.skip, f.inFrame = stream, int(frameLen), true
			f.hasTr = flags&wireproto.EnvFlagTrace != 0
			f.traceN, f.want, f.trace = 0, -1, f.trace[:0]
			if !f.hasTr {
				f.want = 0
			}
		case f.want < 0:
			k := copy(f.traceLn[f.traceN:], p)
			f.traceN += k
			p = p[k:]
			if f.traceN < len(f.traceLn) {
				return
			}
			n, err := wireproto.ParseTraceLen(f.traceLn[:])
			if err != nil {
				f.broken = true
				return
			}
			f.want = n
		case f.want > 0:
			k := min(f.want, len(p))
			f.trace = append(f.trace, p[:k]...)
			f.want -= k
			p = p[k:]
		default:
			k := min(f.skip, len(p))
			f.skip -= k
			p = p[k:]
			if f.skip > 0 {
				return
			}
			if f.frames > 0 {
				done(f.stream, string(f.trace))
			}
			f.frames++
			f.inFrame, f.envN = false, 0
		}
	}
}

// link assigns parents from trace IDs: a trace's client span parents
// its router span, which parents the trace's replica spans. It returns
// the children of every span, indexed like spans.
func link(spans []span) [][]int {
	type ids struct{ client, router int }
	byTrace := make(map[string]*ids)
	get := func(t string) *ids {
		x := byTrace[t]
		if x == nil {
			x = &ids{-1, -1}
			byTrace[t] = x
		}
		return x
	}
	for i, s := range spans {
		switch s.Name {
		case spanClient:
			get(s.Trace).client = i
		case spanRouter:
			get(s.Trace).router = i
		}
	}
	children := make([][]int, len(spans))
	for i := range spans {
		s := &spans[i]
		x := byTrace[s.Trace]
		if s.Trace == "" || x == nil {
			continue
		}
		switch s.Name {
		case spanRouter:
			s.Parent = x.client
		case spanReplicaHTP, spanReplicaMux:
			s.Parent = x.router
		}
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	return children
}

// selfTime is s's duration minus the part of it its children cover.
// Children may overlap one another and may stick out of s; only the
// union of their intervals inside s counts.
func selfTime(s span, children []span) time.Duration {
	type iv struct{ lo, hi time.Time }
	var ivs []iv
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo.Before(s.Start) {
			lo = s.Start
		}
		if hi.After(s.End) {
			hi = s.End
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo.After(cur.hi):
			covered += cur.hi.Sub(cur.lo)
			cur = v
		case v.hi.After(cur.hi):
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi.Sub(cur.lo)
	}
	return s.dur() - covered
}

// writeSpans writes spans as CSV (name, trace, parent, start and end in
// nanoseconds since the first span) to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var t0 time.Time
	if len(spans) > 0 {
		t0 = spans[0].Start
	}
	fmt.Fprintln(w, "name,trace,parent,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%s,%d,%d,%d\n", s.Name, s.Trace, s.Parent, s.Start.Sub(t0), s.End.Sub(t0))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
