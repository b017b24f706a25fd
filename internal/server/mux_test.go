package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/mux"
	"repro/internal/wireproto"
)

// muxFixture is fixture plus the stream transport: s's NewMuxServer on a
// loopback listener, and a client connection to it from mux.Dial that
// carries the server's fingerprint, as a router's would.
func muxFixture(t *testing.T, cfg Config) (*Server, string, *mux.Conn) {
	t.Helper()
	_, s, _ := fixture(t, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ms := s.NewMuxServer(func(string, ...any) {})
	go ms.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ms.Shutdown(ctx)
	})
	cn, err := mux.Dial(context.Background(), ln.Addr().String(), mux.ClientConfig{Fingerprint: s.fingerprint})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cn.Close() })
	return s, ln.Addr().String(), cn
}

// TestBinaryBatch: a batch of binary frames over the stream transport
// answers exactly what Server.Reachable does.
func TestBinaryBatch(t *testing.T) {
	s, _, cn := muxFixture(t, Config{})
	n := uint32(s.g.NumVertices())
	pairs := make([][2]uint32, 300)
	for i := range pairs {
		pairs[i] = [2]uint32{uint32(i) % n, uint32(i*7) % n}
	}
	out := make([]bool, len(pairs))
	if err := cn.Batch(context.Background(), pairs, out, "mux-batch-trace"); err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		want, _ := s.Reachable(p[0], p[1])
		if out[i] != want {
			t.Fatalf("pair %d (%d,%d): mux says %v, Reachable says %v", i, p[0], p[1], out[i], want)
		}
	}
}

// TestBinaryBatchUnknownVertices: out-of-range IDs answer false, exactly
// like the JSON batch path, instead of failing the batch.
func TestBinaryBatchUnknownVertices(t *testing.T) {
	s, _, cn := muxFixture(t, Config{})
	huge := uint32(s.g.NumVertices() + 1000)
	out := make([]bool, 2)
	if err := cn.Batch(context.Background(), [][2]uint32{{huge, 0}, {0, huge}}, out, ""); err != nil {
		t.Fatal(err)
	}
	if out[0] || out[1] {
		t.Fatalf("unknown-vertex pairs answered %v, want false,false", out)
	}
}

// TestBinaryBatchRejections drives every refusal over the stream
// transport: each comes back as an in-band error frame on the batch's
// own stream with its HTTP-shaped status, and the connection then
// serves the next batch. The one exception is an envelope too short to
// hold a frame header, which breaks the stream framing itself and
// closes the connection.
func TestBinaryBatchRejections(t *testing.T) {
	s, addr, cn := muxFixture(t, Config{MaxBatchPairs: 100, MaxInFlight: 1})
	ctx := context.Background()
	valid := make([]byte, wireproto.RequestSize(1))
	wireproto.EncodeRequest(valid, [][2]uint32{{1, 2}})
	badMagic := bytes.Clone(valid)
	badMagic[0] = 'X'
	errorKind := make([]byte, wireproto.ErrorSize(2))
	wireproto.EncodeError(errorKind, 400, "hi")

	// Frames mux.Conn never sends go over a hand-made connection.
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"truncated payload", valid[:len(valid)-3]},
		{"trailing bytes", append(bytes.Clone(valid), 0xEE)},
		{"bad magic", badMagic},
		{"error frame as request", errorKind},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := rawMux(t, addr, s.fingerprint)
			resp := rawExchange(t, c, tc.frame)
			status, msg, err := wireproto.DecodeError(resp)
			if err != nil || status != http.StatusBadRequest || !strings.Contains(msg, "malformed") {
				t.Fatalf("answer % x: status %d %q (%v), want an in-band 400", resp, status, msg, err)
			}
			resp = rawExchange(t, c, valid)
			if n, err := wireproto.ResponseCount(resp); err != nil || n != 1 {
				t.Fatalf("valid frame after the 400: count %d, %v", n, err)
			}
		})
	}
	t.Run("truncated header", func(t *testing.T) {
		c := rawMux(t, addr, s.fingerprint)
		buf := make([]byte, wireproto.EnvelopeSize+8)
		wireproto.PutEnvelope(buf, 1, 0, 8)
		copy(buf[wireproto.EnvelopeSize:], valid[:8])
		if _, err := c.Write(buf); err != nil {
			t.Fatal(err)
		}
		if n, err := c.Read(make([]byte, 1)); err == nil {
			t.Fatalf("read %d bytes after an 8-byte frame, want the connection closed", n)
		}
	})

	// The rest are ordinary batches from mux.Dial's connection.
	okPairs := make([][2]uint32, 100)
	for i := range okPairs {
		okPairs[i] = [2]uint32{uint32(i), uint32(i + 1)}
	}
	wantFail := func(t *testing.T, err error, status int, substr string) {
		t.Helper()
		var f *mux.Fail
		if !errors.As(err, &f) || f.Status != status || !strings.Contains(f.Msg, substr) {
			t.Fatalf("got %v, want in-band %d mentioning %q", err, status, substr)
		}
		if err := cn.Batch(ctx, okPairs, make([]bool, len(okPairs)), ""); err != nil {
			t.Fatalf("next batch on the same connection: %v", err)
		}
	}
	t.Run("over pair limit", func(t *testing.T) {
		// With a trace field too, so the discard starts after it.
		big := make([][2]uint32, 101)
		err := cn.Batch(ctx, big, make([]bool, len(big)), "over-limit-trace")
		wantFail(t, err, http.StatusRequestEntityTooLarge, "exceeds the limit of 100 pairs")
	})
	t.Run("full gate", func(t *testing.T) {
		s.gate <- struct{}{} // hold the only slot
		err := cn.Batch(ctx, okPairs, make([]bool, len(okPairs)), "")
		<-s.gate
		wantFail(t, err, http.StatusTooManyRequests, "max in-flight")
	})
}

// rawMux opens a stream-transport connection by hand and completes the
// handshake, for sending frames mux.Conn never would.
func rawMux(t *testing.T, addr, fingerprint string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	hs := make([]byte, wireproto.EnvelopeSize+wireproto.HandshakeSize(len(fingerprint)))
	n := wireproto.EncodeHandshake(hs[wireproto.EnvelopeSize:], 0, fingerprint)
	wireproto.PutEnvelope(hs, 0, 0, uint32(n))
	if _, err := c.Write(hs); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wireproto.DecodeHandshake(readEnveloped(t, c, 0)); err != nil {
		t.Fatalf("handshake reply: %v", err)
	}
	return c
}

// rawExchange sends frame on stream 1 and returns the frame answered on
// that stream.
func rawExchange(t *testing.T, c net.Conn, frame []byte) []byte {
	t.Helper()
	buf := make([]byte, wireproto.EnvelopeSize+len(frame))
	wireproto.PutEnvelope(buf, 1, 0, uint32(len(frame)))
	copy(buf[wireproto.EnvelopeSize:], frame)
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	return readEnveloped(t, c, 1)
}

// readEnveloped reads one enveloped frame and checks its stream ID.
func readEnveloped(t *testing.T, c net.Conn, wantStream uint32) []byte {
	t.Helper()
	var hdr [wireproto.EnvelopeSize]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		t.Fatalf("reading envelope: %v", err)
	}
	stream, _, n, err := wireproto.ParseEnvelope(hdr[:], 1<<20)
	if err != nil || stream != wantStream {
		t.Fatalf("envelope stream %d (%v), want stream %d", stream, err, wantStream)
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(c, frame); err != nil {
		t.Fatalf("reading frame: %v", err)
	}
	return frame
}

// TestHealthzAdvertisesMux: healthz advertises exactly the stream
// listener the server was configured with, and none without one.
func TestHealthzAdvertisesMux(t *testing.T) {
	for _, addr := range []string{"", "127.0.0.1:7071"} {
		_, _, ts := fixture(t, Config{MuxAddr: addr})
		var hz HealthzResponse
		getJSON(t, ts.URL+"/v1/healthz", &hz)
		if hz.Mux != addr {
			t.Fatalf("healthz mux = %q with MuxAddr %q, want it echoed", hz.Mux, addr)
		}
	}
}

// TestWireMetrics: a JSON batch lands in the reach_wire_* series and a
// stream-transport batch in reach_mux_*, each with its byte counts.
func TestWireMetrics(t *testing.T) {
	s, _, cn := muxFixture(t, Config{})
	if err := cn.Batch(context.Background(), [][2]uint32{{1, 2}}, make([]bool, 1), ""); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	rec := func(method, path, body string) string {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		return w.Body.String()
	}
	rec(http.MethodPost, "/v1/batch", `{"pairs":[[1,2]]}`)
	page := rec(http.MethodGet, "/metrics", "")
	for _, want := range []string{
		`reach_wire_frames_total{encoding="json"} 1`,
		`reach_wire_bytes_total{direction="rx",encoding="json"} 17`, // {"pairs":[[1,2]]}
		`reach_mux_frames_total{direction="rx"} 1`,
		`reach_mux_frames_total{direction="tx"} 1`,
		`reach_mux_bytes_total{direction="rx"} 32`, // 12 envelope + 12 header + 1 pair
		`reach_mux_bytes_total{direction="tx"} 32`, // 12 envelope + 12 header + 1 word
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The JSON tx byte count depends on encoding details; just demand
	// it is a series.
	if !strings.Contains(page, `reach_wire_bytes_total{direction="tx",encoding="json"}`) {
		t.Errorf("/metrics missing JSON tx byte series")
	}
	if strings.Contains(page, `encoding="binary"`) {
		t.Errorf("/metrics still carries a binary-over-HTTP series")
	}
}
