package mux

import (
	"context"
	"fmt"
	"net"
	"testing"
)

// BenchmarkMuxBatch measures one client round trip over a real
// loopback TCP connection — envelope+frame encode, write, server
// decode/answer/encode, read, decode — with a trivial batch function
// so the number is the transport, not the oracle. This is the raw-TCP
// counterpart of the HTTP hop inside BenchmarkRouterBatch; the CI perf
// gate pins it.
func BenchmarkMuxBatch(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	s := NewServer(ServerConfig{Batch: echoBenchBatch, Single: echoSingle})
	go s.Serve(ln)
	defer func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // force-close: nothing in flight when the bench ends
		s.Shutdown(ctx)
	}()
	cn, err := Dial(context.Background(), ln.Addr().String(), ClientConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer cn.Close()

	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("pairs=%d", n), func(b *testing.B) {
			pairs, _ := benchPairs(n)
			out := make([]bool, n)
			ctx := context.Background()
			for range 20 { // warm slot buffers and server scratch
				if err := cn.Batch(ctx, pairs, out, ""); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cn.Batch(ctx, pairs, out, ""); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(n * 8))
		})
	}
}

func echoBenchBatch(_ context.Context, _ string, pairs [][2]uint32, out []bool) error {
	for i, p := range pairs {
		out[i] = p[0] <= p[1]
	}
	return nil
}

func benchPairs(n int) ([][2]uint32, []bool) {
	pairs := make([][2]uint32, n)
	want := make([]bool, n)
	s := uint32(12345)
	for i := range pairs {
		s = s*1664525 + 1013904223
		u := s % (1 << 20)
		s = s*1664525 + 1013904223
		v := s % (1 << 20)
		pairs[i] = [2]uint32{u, v}
		want[i] = u <= v
	}
	return pairs, want
}
