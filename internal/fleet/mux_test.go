package fleet

import (
	"context"
	"math/rand"
	"net"
	"net/http/httptest"
	"testing"

	reach "repro"
	"repro/internal/server"
)

// startMuxReplica is startReplica plus a stream-transport listener: the
// kernel-assigned mux address goes into server.Config before server.New
// so healthz advertises it, mirroring reachd -mux-addr.
func startMuxReplica(t *testing.T, g *reach.Graph, oracle *reach.Oracle) string {
	t.Helper()
	muxLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(g, oracle, server.Config{MuxAddr: muxLn.Addr().String()})
	ms := s.NewMuxServer(func(string, ...any) {})
	go ms.Serve(muxLn)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // force-close; clients are gone by cleanup time
		ms.Shutdown(ctx)
		s.Close()
	})
	return ts.URL
}

// TestMuxNegotiation: a mux-advertising replica and an HTTP-only one
// behind the same router. The router must open the stream transport to
// the first (and report it in /v1/stats), send binary frames over plain
// HTTP to the second, and merge correct answers out of the mixed scatter
// with batch traffic actually flowing over both transports.
func TestMuxNegotiation(t *testing.T) {
	g, oracle := realOracle(t)
	muxBase := startMuxReplica(t, g, oracle)
	httpBase := startReplica(t, g, oracle, server.Config{})

	cfg := silentCfg(muxBase, httpBase)
	cfg.MinSubBatch = 16
	rt := newTestRouter(t, cfg)

	byBase := replicaStatsByBase(t, rt)
	if got := byBase[muxBase].Transport; got != "mux" {
		t.Fatalf("mux-advertising replica negotiated transport %q, want \"mux\"", got)
	}
	if got := byBase[httpBase].Transport; got != "http" {
		t.Fatalf("HTTP-only replica negotiated transport %q, want \"http\"", got)
	}

	rng := rand.New(rand.NewSource(11))
	n := g.NumVertices()
	for round := 0; round < 8; round++ {
		pairs := make([][2]uint64, 200)
		for i := range pairs {
			pairs[i] = [2]uint64{uint64(rng.Intn(n)), uint64(rng.Intn(n))}
		}
		res, err := rt.Batch(context.Background(), pairs)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			if res[i] != oracle.Reachable(uint32(p[0]), uint32(p[1])) {
				t.Fatalf("round %d: mixed-transport batch result %d disagrees with oracle", round, i)
			}
		}
	}
	if tx, rx := rt.met.muxTraffic.FramesTx.Load(), rt.met.muxTraffic.FramesRx.Load(); tx == 0 || rx == 0 {
		t.Fatalf("mux frame counters tx=%d rx=%d, want both positive", tx, rx)
	}
	if tx, rx := rt.met.muxTraffic.BytesTx.Load(), rt.met.muxTraffic.BytesRx.Load(); tx == 0 || rx == 0 {
		t.Fatalf("mux byte counters tx=%d rx=%d, want both positive", tx, rx)
	}
	if rt.replicas[0].client.MuxOpenConns()+rt.replicas[1].client.MuxOpenConns() == 0 {
		t.Fatal("no open mux connections after mux-routed batches")
	}
	if tx, rx := rt.met.wire.txBinary.Load(), rt.met.wire.rxBinary.Load(); tx == 0 || rx == 0 {
		t.Fatalf("binary-over-HTTP byte counters tx=%d rx=%d, want both positive", tx, rx)
	}
}

// TestMuxFallbackToHTTP: when every stream-transport connection is
// refused (the advertised listener is gone but the replica's HTTP side
// is alive — say the mux port got firewalled), batches must degrade to
// HTTP per batch without ejecting the replica or surfacing an error.
func TestMuxFallbackToHTTP(t *testing.T) {
	g, oracle := realOracle(t)
	// A listener bound and immediately closed: a dialable-looking
	// advertisement with nothing behind it.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()
	base := startReplica(t, g, oracle, server.Config{MuxAddr: deadAddr})

	cfg := silentCfg(base)
	rt := newTestRouter(t, cfg)

	// Negotiation believes the advertisement (the pool dials lazily)...
	if got := replicaStatsByBase(t, rt)[base].Transport; got != "mux" {
		t.Fatalf("negotiated transport %q, want \"mux\" (advertisement taken at face value)", got)
	}
	// ...but batches must still come back right, over HTTP.
	res, err := rt.Batch(context.Background(), [][2]uint64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range [][2]uint64{{1, 2}, {3, 4}} {
		if res[i] != oracle.Reachable(uint32(p[0]), uint32(p[1])) {
			t.Fatalf("fallback batch result %d disagrees with oracle", i)
		}
	}
	if rt.met.muxTraffic.FramesTx.Load() != 0 {
		t.Fatal("dead mux listener cannot have carried frames")
	}
	if rt.met.wire.framesBinary.Load() == 0 {
		t.Fatal("fallback batch did not go over HTTP binary")
	}
	// The replica must still be enrolled: mux trouble is a transport
	// detail, not a health signal — HTTP liveness decides ejection.
	if got := len(rt.healthy(nil)); got != 1 {
		t.Fatalf("%d healthy replicas after mux fallback, want 1", got)
	}
}

// TestResolveMuxAddr: wildcard advertised hosts (a reachd bound to
// ":7071" advertises what it heard) must be re-hosted onto the replica's
// known-good HTTP hostname; concrete hosts pass through; garbage yields
// "" (no mux rather than a bad dial target).
func TestResolveMuxAddr(t *testing.T) {
	cases := []struct {
		base, adv, want string
	}{
		{"http://10.1.2.3:8080", "10.1.2.3:7071", "10.1.2.3:7071"},
		{"http://10.1.2.3:8080", "0.0.0.0:7071", "10.1.2.3:7071"},
		{"http://10.1.2.3:8080", ":7071", "10.1.2.3:7071"},
		{"http://replica-7.prod:8080", "[::]:7071", "replica-7.prod:7071"},
		{"http://10.1.2.3:8080", "not an addr", ""},
		{"::not a url::", "0.0.0.0:7071", ""},
	}
	for _, c := range cases {
		if got := resolveMuxAddr(c.base, c.adv); got != c.want {
			t.Errorf("resolveMuxAddr(%q, %q) = %q, want %q", c.base, c.adv, got, c.want)
		}
	}
}
