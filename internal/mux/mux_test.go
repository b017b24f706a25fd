package mux

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoBatch answers u<=v — trivially checkable from the pairs alone.
func echoBatch(_ context.Context, _ string, pairs [][2]uint32, out []bool) error {
	for i, p := range pairs {
		out[i] = p[0] <= p[1]
	}
	return nil
}

// echoSingle answers a single query as echoBatch would, reports u==v as
// cached, and rejects u==0 as an unknown vertex, so every outcome of a
// single frame is checkable from the query alone.
func echoSingle(_ context.Context, _ string, u, v uint32) (bool, bool, error) {
	if u == 0 {
		return false, false, &Fail{Status: 400, Msg: fmt.Sprintf("vertex %d not in graph", u)}
	}
	return u <= v, u == v, nil
}

// startServer brings up a mux server on a loopback listener and
// returns its address plus a shutdown func. A config without a single
// handler gets echoSingle.
func startServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Single == nil {
		cfg.Single = echoSingle
	}
	s := NewServer(cfg)
	go s.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ln.Addr().String()
}

func testPairs(n, seed int) ([][2]uint32, []bool) {
	pairs := make([][2]uint32, n)
	want := make([]bool, n)
	s := uint32(seed)*2654435761 + 1
	for i := range pairs {
		s = s*1664525 + 1013904223
		u := s % 100000
		s = s*1664525 + 1013904223
		v := s % 100000
		pairs[i] = [2]uint32{u, v}
		want[i] = u <= v
	}
	return pairs, want
}

func TestMuxRoundTrip(t *testing.T) {
	srv, addr := startServer(t, ServerConfig{Batch: echoBatch, Fingerprint: "00000000deadbeef"})
	cn, err := Dial(context.Background(), addr, ClientConfig{Fingerprint: "00000000deadbeef"})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if got := cn.ServerFingerprint(); got != "00000000deadbeef" {
		t.Fatalf("server fingerprint = %q", got)
	}
	for _, n := range []int{1, 3, 64, 65, 512} {
		pairs, want := testPairs(n, n)
		out := make([]bool, n)
		if err := cn.Batch(context.Background(), pairs, out, ""); err != nil {
			t.Fatalf("Batch(%d): %v", n, err)
		}
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("Batch(%d): out[%d] = %v, want %v", n, i, out[i], want[i])
			}
		}
	}
	if got := srv.OpenConns(); got != 1 {
		t.Fatalf("OpenConns = %d, want 1", got)
	}
	tr := srv.Traffic()
	if tr.FramesRx.Load() == 0 || tr.FramesTx.Load() == 0 || tr.BytesRx.Load() == 0 || tr.BytesTx.Load() == 0 {
		t.Fatalf("server traffic counters not all advancing: %+v", tr)
	}
}

// TestMuxPipelining hammers one connection from many goroutines: every
// batch must come back positionally correct even though responses
// interleave across streams.
func TestMuxPipelining(t *testing.T) {
	_, addr := startServer(t, ServerConfig{Batch: echoBatch, Window: 8})
	cn, err := Dial(context.Background(), addr, ClientConfig{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	var wg sync.WaitGroup
	errc := make(chan error, 32)
	for g := range 32 { // 4x the window: excess callers queue on the free list
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 50 {
				n := 1 + (g*50+round)%200
				pairs, want := testPairs(n, g*1000+round)
				out := make([]bool, n)
				if err := cn.Batch(context.Background(), pairs, out, ""); err != nil {
					errc <- err
					return
				}
				for i := range out {
					if out[i] != want[i] {
						errc <- fmt.Errorf("goroutine %d round %d: out[%d] = %v, want %v", g, round, i, out[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestMuxTracePropagation(t *testing.T) {
	var seen atomic.Value
	batch := func(_ context.Context, trace string, pairs [][2]uint32, out []bool) error {
		seen.Store(trace)
		return echoBatch(context.Background(), trace, pairs, out)
	}
	_, addr := startServer(t, ServerConfig{Batch: batch})
	cn, err := Dial(context.Background(), addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	pairs, _ := testPairs(4, 1)
	out := make([]bool, 4)
	if err := cn.Batch(context.Background(), pairs, out, "trace-abc-123"); err != nil {
		t.Fatal(err)
	}
	if got, _ := seen.Load().(string); got != "trace-abc-123" {
		t.Fatalf("server saw trace %q, want %q", got, "trace-abc-123")
	}
	// And the traceless steady state stays traceless.
	if err := cn.Batch(context.Background(), pairs, out, ""); err != nil {
		t.Fatal(err)
	}
	if got, _ := seen.Load().(string); got != "" {
		t.Fatalf("server saw trace %q for a traceless batch", got)
	}
}

// TestMuxSingle: a single query travels as a single frame and comes
// back with its answer and cached flag, a rejected one as an in-band
// *Fail that leaves the connection serving, and its trace reaches the
// handler like a batch's. One request frame and one response frame
// cross per query.
func TestMuxSingle(t *testing.T) {
	var seen atomic.Value
	single := func(ctx context.Context, trace string, u, v uint32) (bool, bool, error) {
		seen.Store(trace)
		return echoSingle(ctx, trace, u, v)
	}
	srv, addr := startServer(t, ServerConfig{Batch: echoBatch, Single: single})
	cn, err := Dial(context.Background(), addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	ctx := context.Background()
	for _, q := range [][2]uint32{{3, 9}, {9, 3}, {5, 5}} {
		got, cached, err := cn.Single(ctx, q[0], q[1], "single-trace")
		if err != nil {
			t.Fatalf("Single(%d, %d): %v", q[0], q[1], err)
		}
		if got != (q[0] <= q[1]) || cached != (q[0] == q[1]) {
			t.Fatalf("Single(%d, %d) = (%v, cached %v)", q[0], q[1], got, cached)
		}
	}
	if got, _ := seen.Load().(string); got != "single-trace" {
		t.Fatalf("single handler saw trace %q, want single-trace", got)
	}
	_, _, err = cn.Single(ctx, 0, 4, "")
	var f *Fail
	if !errors.As(err, &f) || f.Status != 400 || f.Msg != "vertex 0 not in graph" {
		t.Fatalf("rejected single = %v, want Fail{400, vertex 0 not in graph}", err)
	}
	if cn.Dead() {
		t.Fatal("conn marked dead after a single's in-band error frame")
	}
	// A one-pair batch is still a batch: echoBatch answers it.
	out := make([]bool, 1)
	if err := cn.Batch(ctx, [][2]uint32{{0, 4}}, out, ""); err != nil || !out[0] {
		t.Fatalf("one-pair batch after the rejected single = %v, %v", out[0], err)
	}
	if rx, tx := srv.Traffic().FramesRx.Load(), srv.Traffic().FramesTx.Load(); rx != 5 || tx != 5 {
		t.Fatalf("server frames rx=%d tx=%d after 4 singles and 1 batch, want 5 and 5", rx, tx)
	}
}

func TestMuxFingerprintMismatch(t *testing.T) {
	_, addr := startServer(t, ServerConfig{Batch: echoBatch, Fingerprint: "00000000deadbeef"})
	_, err := Dial(context.Background(), addr, ClientConfig{Fingerprint: "ffffffff00000000"})
	if !errors.Is(err, ErrFingerprint) {
		t.Fatalf("Dial with wrong fingerprint: %v, want ErrFingerprint", err)
	}
	// An empty client fingerprint skips the check (the caller opted out).
	cn, err := Dial(context.Background(), addr, ClientConfig{})
	if err != nil {
		t.Fatalf("Dial without fingerprint: %v", err)
	}
	cn.Close()
}

func TestMuxErrorFrame(t *testing.T) {
	batch := func(_ context.Context, _ string, pairs [][2]uint32, _ []bool) error {
		return &Fail{Status: 429, Msg: "replica overloaded"}
	}
	_, addr := startServer(t, ServerConfig{Batch: batch})
	cn, err := Dial(context.Background(), addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	pairs, _ := testPairs(8, 1)
	out := make([]bool, 8)
	err = cn.Batch(context.Background(), pairs, out, "")
	var f *Fail
	if !errors.As(err, &f) || f.Status != 429 || f.Msg != "replica overloaded" {
		t.Fatalf("Batch = %v, want Fail{429, replica overloaded}", err)
	}
	// The error is per-batch, not per-connection: the conn stays usable.
	if cn.Dead() {
		t.Fatal("conn marked dead after an in-band error frame")
	}
}

func TestMuxIdleTimeout(t *testing.T) {
	_, addr := startServer(t, ServerConfig{Batch: echoBatch, IdleTimeout: 50 * time.Millisecond})
	cn, err := Dial(context.Background(), addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	pairs, _ := testPairs(4, 1)
	out := make([]bool, 4)
	if err := cn.Batch(context.Background(), pairs, out, ""); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !cn.Dead() {
		if time.Now().After(deadline) {
			t.Fatal("idle server never closed the connection")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cn.Batch(context.Background(), pairs, out, ""); err == nil {
		t.Fatal("Batch on an idle-closed conn succeeded")
	}
}

// TestMuxGracefulDrain: a batch in flight when Shutdown starts must
// still be answered; new connections are refused afterwards.
func TestMuxGracefulDrain(t *testing.T) {
	release := make(chan struct{})
	batch := func(ctx context.Context, trace string, pairs [][2]uint32, out []bool) error {
		<-release
		return echoBatch(ctx, trace, pairs, out)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ServerConfig{Batch: batch, Single: echoSingle})
	go s.Serve(ln)
	cn, err := Dial(context.Background(), ln.Addr().String(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	pairs, want := testPairs(16, 9)
	out := make([]bool, 16)
	batchErr := make(chan error, 1)
	go func() {
		batchErr <- cn.Batch(context.Background(), pairs, out, "")
	}()
	// Wait until the batch is in flight server-side, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for s.Traffic().FramesRx.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch never reached the server")
		}
		time.Sleep(time.Millisecond)
	}
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // let the drain kick land first
	close(release)
	if err := <-batchErr; err != nil {
		t.Fatalf("in-flight batch failed during drain: %v", err)
	}
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("drained batch answer wrong at %d", i)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := Dial(context.Background(), ln.Addr().String(), ClientConfig{}); err == nil {
		t.Fatal("Dial succeeded after Shutdown")
	}
}

// TestPoolReconnect: kill the server under a pool, restart it on the
// same address, and the pool must come back without external help.
func TestPoolReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	s1 := NewServer(ServerConfig{Batch: echoBatch, Single: echoSingle})
	go s1.Serve(ln)

	p := NewPool(addr, 2, ClientConfig{})
	defer p.Close()
	ctx := context.Background()
	cn, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pairs, want := testPairs(8, 3)
	out := make([]bool, 8)
	if err := cn.Batch(ctx, pairs, out, ""); err != nil {
		t.Fatal(err)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	s1.Shutdown(sctx)
	cancel()

	// The old conns die; Get redials (the first attempt may race the
	// restart, so retry for a while).
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewServer(ServerConfig{Batch: echoBatch, Single: echoSingle})
	go s2.Serve(ln2)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		cn, err = p.Get(ctx)
		if err == nil && !cn.Dead() {
			if err := cn.Batch(ctx, pairs, out, ""); err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never reconnected: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("post-reconnect answer wrong at %d", i)
		}
	}
	if n := p.OpenConns(); n < 1 {
		t.Fatalf("OpenConns = %d after reconnect", n)
	}
}

// holdListener keeps each connection accepted while hold is set from
// reaching the server until the test sends on release, so a client's
// dial (its handshake) stays in flight; accepted signals each such
// connection.
type holdListener struct {
	net.Listener
	hold     atomic.Bool
	drop     atomic.Bool // close the next connection after its hold instead of serving it
	accepted chan struct{}
	release  chan struct{}
	n        atomic.Int64
}

func (l *holdListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return c, err
		}
		l.n.Add(1)
		if l.hold.Load() {
			l.accepted <- struct{}{}
			<-l.release
		}
		if !l.drop.CompareAndSwap(true, false) {
			return c, nil
		}
		c.Close()
	}
}

// TestPoolGetSharesDials: while one caller dials a slot, Get hands
// another caller any live connection at once, and with none live it
// waits for that dial rather than dialing a second time; if that dial
// fails, the waiter dials the slot itself.
func TestPoolGetSharesDials(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hl := &holdListener{Listener: ln, accepted: make(chan struct{}, 1), release: make(chan struct{})}
	s := NewServer(ServerConfig{Batch: echoBatch, Single: echoSingle})
	go s.Serve(hl)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	addr, ctx := ln.Addr().String(), context.Background()
	get := func(p *Pool, into chan<- *Conn) {
		cn, err := p.Get(ctx)
		if err != nil {
			t.Error(err)
		}
		into <- cn
	}

	// One slot: a second Get arriving mid-dial shares the first's dial.
	p1 := NewPool(addr, 1, ClientConfig{})
	defer p1.Close()
	hl.hold.Store(true)
	first, second := make(chan *Conn, 1), make(chan *Conn, 1)
	go get(p1, first)
	<-hl.accepted
	go get(p1, second)
	time.Sleep(20 * time.Millisecond) // let the second Get find the slot mid-dial
	hl.release <- struct{}{}
	if a, b := <-first, <-second; a == nil || a != b {
		t.Fatalf("concurrent Gets on one slot returned %p and %p, want one shared connection", a, b)
	}
	if n := hl.n.Load(); n != 1 {
		t.Fatalf("%d connections accepted, want the one dial shared", n)
	}

	// Two slots, slot 1 live: a Get landing on slot 0 while it is being
	// dialed gets slot 1's connection at once.
	p2 := NewPool(addr, 2, ClientConfig{})
	defer p2.Close()
	hl.hold.Store(false)
	live, err := p2.Get(ctx) // round-robin slot 1
	if err != nil {
		t.Fatal(err)
	}
	hl.hold.Store(true)
	dialed := make(chan *Conn, 1)
	go get(p2, dialed) // slot 0, held mid-dial
	<-hl.accepted
	if cn, err := p2.Get(ctx); err != nil || cn != live { // slot 1 again
		t.Fatalf("Get on the live slot = %p, %v", cn, err)
	}
	if cn, err := p2.Get(ctx); err != nil || cn != live { // slot 0, mid-dial
		t.Fatalf("Get on a slot mid-dial = %p, %v; want the live connection %p", cn, err, live)
	}
	hl.release <- struct{}{}
	if cn := <-dialed; cn == nil || cn == live {
		t.Fatalf("the held dial returned %p, want a second connection", cn)
	}

	// One slot: the dial a waiter shares fails, so the waiter dials the
	// slot itself and gets a connection; only the failed dialer errs.
	p3 := NewPool(addr, 1, ClientConfig{})
	defer p3.Close()
	hl.hold.Store(true)
	hl.drop.Store(true)
	accepted := hl.n.Load()
	failed := make(chan error, 1)
	go func() {
		_, err := p3.Get(ctx)
		failed <- err
	}()
	<-hl.accepted
	waiter := make(chan *Conn, 1)
	go get(p3, waiter)
	time.Sleep(20 * time.Millisecond) // let the waiter find the slot mid-dial
	hl.hold.Store(false)
	hl.release <- struct{}{}
	if err := <-failed; err == nil {
		t.Fatal("the dropped dial succeeded")
	}
	if cn := <-waiter; cn == nil || cn.Dead() {
		t.Fatalf("the waiter on a failed dial got %p, want a live connection of its own", cn)
	}
	if n := hl.n.Load() - accepted; n != 2 {
		t.Fatalf("%d connections accepted, want the failed dial and the waiter's own", n)
	}
}

// TestMuxBatchCtxCancel: a caller abandoning a batch mid-flight gets
// ctx.Err() and the stream slot is reclaimed when the late response
// lands — later batches on the same conn stay correct.
func TestMuxBatchCtxCancel(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int64
	batch := func(ctx context.Context, trace string, pairs [][2]uint32, out []bool) error {
		if calls.Add(1) == 1 {
			<-release
		}
		return echoBatch(ctx, trace, pairs, out)
	}
	_, addr := startServer(t, ServerConfig{Batch: batch, Window: 1})
	cn, err := Dial(context.Background(), addr, ClientConfig{Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	pairs, want := testPairs(8, 5)
	out := make([]bool, 8)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	if err := cn.Batch(ctx, pairs, out, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned batch = %v, want context.Canceled", err)
	}
	close(release) // the stuck batch answers; its slot must recycle

	// Window is 1: this batch needs the abandoned slot back.
	done := make(chan error, 1)
	go func() {
		done <- cn.Batch(context.Background(), pairs, out, "")
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("batch after abandonment: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned slot never reclaimed: follow-up batch hung")
	}
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("post-abandon answer wrong at %d", i)
		}
	}
}

// TestMuxZeroAllocSteadyState is the acceptance pin: once warmed, a
// full client round trip (encode, write, read, decode) plus the
// server's answer path allocates nothing on either side.
// AllocsPerRun counts mallocs process-wide, so the server goroutines
// are inside the measurement too.
func TestMuxZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on goroutine handoffs")
	}
	_, addr := startServer(t, ServerConfig{Batch: echoBatch})
	cn, err := Dial(context.Background(), addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	pairs, _ := testPairs(512, 7)
	out := make([]bool, 512)
	ctx := context.Background()
	for range 100 { // warm every buffer and pool on both sides
		if err := cn.Batch(ctx, pairs, out, ""); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(300, func() {
		if err := cn.Batch(ctx, pairs, out, ""); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.1 {
		t.Fatalf("steady-state Batch allocates %.2f times per op, want 0", allocs)
	}
	for range 100 {
		if _, _, err := cn.Single(ctx, 3, 9, ""); err != nil {
			t.Fatal(err)
		}
	}
	allocs = testing.AllocsPerRun(300, func() {
		if ok, cached, err := cn.Single(ctx, 3, 9, ""); err != nil || !ok || cached {
			t.Fatal(ok, cached, err)
		}
	})
	if allocs > 0.1 {
		t.Fatalf("steady-state Single allocates %.2f times per op, want 0", allocs)
	}
}
