package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"
)

// edgeBody renders n uniform pairs over 20k vertices — perfbench's
// fleet-bulk shape — as a compact /v1/batch body. key is the JSON key,
// "pairs" for the canonical body.
func edgeBody(n int, key string, seed int64) ([]byte, [][2]uint64) {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]uint64, n)
	b := []byte(`{"` + key + `":[`)
	for i := range pairs {
		pairs[i] = [2]uint64{uint64(rng.Intn(20000)), uint64(rng.Intn(20000))}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendUint(b, pairs[i][0], 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, pairs[i][1], 10)
		b = append(b, ']')
	}
	return append(b, "]}"...), pairs
}

// plainDecode is the decoder the codec must match: encoding/json with
// unknown fields disallowed, as both handlers used before the codec.
func plainDecode(r io.Reader) ([][2]uint64, error) {
	var req BatchRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req.Pairs, err
}

// capped wraps body in the byte cap of a server allowing maxPairs.
func capped(body []byte, maxPairs int) io.Reader {
	return http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxBatchBodyBytes(maxPairs))
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestEdgeFastPath pins which verdict-table bodies the fast path takes,
// and that it decodes those exactly as encoding/json does. A body past
// the byte cap never reaches the parser: it is not read ahead.
func TestEdgeFastPath(t *testing.T) {
	e := GetEdgeBatch()
	defer e.Release()
	for _, c := range EdgeCases {
		body := []byte(c.Body)
		pairs, ok := e.parse(body, EdgeMaxPairs)
		ok = ok && int64(len(body)) <= maxBatchBodyBytes(EdgeMaxPairs)
		if ok != c.Fast {
			t.Errorf("%q: fast path took it = %v, want %v", c.Name, ok, c.Fast)
			continue
		}
		if !ok {
			continue
		}
		want, err := plainDecode(bytes.NewReader(body))
		if err != nil || !slices.Equal(pairs, want) {
			t.Errorf("%q: fast path decoded %v, encoding/json %v (%v)", c.Name, pairs, want, err)
		}
	}
}

// TestParseUintBounds pins the fast path's integer rules at their
// edges, where a 20-digit value may wrap past math.MaxUint64.
func TestParseUintBounds(t *testing.T) {
	for _, c := range []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"0", 0, true},
		{"7", 7, true},
		{"10000000000000000000", 1e19, true},
		{"18446744073709551615", 1<<64 - 1, true},
		{"18446744073709551616", 0, false},
		{"18446744073709551700", 0, false},
		{"19000000000000000000", 0, false},
		{"99999999999999999999", 0, false},
		{"100000000000000000000", 0, false},
		{"00", 0, false},
		{"01", 0, false},
		{"", 0, false},
		{"-1", 0, false},
	} {
		v, next, ok := parseUint([]byte(c.in+"]"), 0)
		if ok != c.ok || (ok && (v != c.want || next != len(c.in))) {
			t.Errorf("parseUint(%q) = %d, %d, %v; want %d, %v", c.in, v, next, ok, c.want, c.ok)
		}
	}
}

// TestEdgeDecodeLargeBatch runs a perfbench-shaped body through the
// whole codec, reusing one EdgeBatch across batches of different sizes.
func TestEdgeDecodeLargeBatch(t *testing.T) {
	e := GetEdgeBatch()
	defer e.Release()
	for i, n := range []int{4096, 1, 32, 0, 4096} {
		body, want := edgeBody(n, "pairs", int64(i))
		got, err := e.decode(bytes.NewReader(body), int64(len(body)), 1<<20)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("n=%d: decoded %d pairs (%v), want %d", n, len(got), err, len(want))
		}
	}
}

// TestEdgeUnknownLengthStreams: a body with no declared length is not
// read ahead, so a complete value answers at once even while its stream
// stays open, as it did under a plain decoder.
func TestEdgeUnknownLengthStreams(t *testing.T) {
	pr, pw := io.Pipe()
	defer pw.Close()
	go pw.Write([]byte(`{"pairs":[[1,2]]}`))
	e := GetEdgeBatch()
	defer e.Release()
	done := make(chan error, 1)
	go func() {
		pairs, err := e.decode(pr, -1, EdgeMaxPairs)
		if err == nil && !slices.Equal(pairs, [][2]uint64{{1, 2}}) {
			err = fmt.Errorf("decoded %v", pairs)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("decode waited for the end of a stream whose value was complete")
	}
}

// TestEdgeDeclinedBodyAllocs bounds what a body the fast path declines
// costs near the byte cap: beyond what encoding/json spends on it, only
// the pair slice for the pairs the fast path parsed before declining
// (doubling, so under 64 bytes a pair) — no scratch sized from the
// body's length. The read buffer is warmed first, as the pool keeps it.
func TestEdgeDeclinedBodyAllocs(t *testing.T) {
	const maxPairs = 1 << 14
	limit := int(maxBatchBodyBytes(maxPairs))
	padded := func(b []byte) []byte { return append(b, bytes.Repeat([]byte(" "), limit-len(b))...) }
	canonical, _ := edgeBody(maxPairs/2, "pairs", 1)
	folded, _ := edgeBody(maxPairs/2, "Pairs", 1)
	over, _ := edgeBody(maxPairs+1, "pairs", 1)
	for _, c := range []struct {
		name   string
		body   []byte
		parsed int // pairs the fast path takes before declining
	}{
		{"case-folded key", padded(folded), 0},
		{"leading space", append([]byte(" "), canonical...), 0},
		{"trailing whitespace", padded(canonical), maxPairs / 2},
		{"over the limit", over, maxPairs},
	} {
		if len(c.body) > limit {
			t.Fatalf("%s: body %d bytes, over the %d-byte cap", c.name, len(c.body), limit)
		}
		plain, codec := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for range 3 {
			plain = min(plain, allocated(func() { plainDecode(bytes.NewReader(c.body)) }))
			e := &EdgeBatch{}
			e.body.Grow(len(c.body) + bytes.MinRead)
			codec = min(codec, allocated(func() {
				if _, err := e.decode(bytes.NewReader(c.body), int64(len(c.body)), maxPairs); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
			}))
		}
		// slack covers the first 256-pair block and the fallback's readers.
		const slack = 8 << 10
		if bound := plain + uint64(64*c.parsed) + slack; codec > bound {
			t.Errorf("%s: codec allocated %d bytes, encoding/json %d; want at most %d", c.name, codec, plain, bound)
		}
	}
}

// allocated is how many heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestEncodeResponseGolden requires the encoder's bytes to equal
// json.Encoder's for the same BatchResponse.
func TestEncodeResponseGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := map[string][]bool{"nil": nil, "all false 4096": make([]bool, 4096)}
	for _, n := range []int{0, 1, 32, 4096} {
		results := make([]bool, n)
		for i := range results {
			results[i] = rng.Intn(2) == 0
		}
		cases[fmt.Sprintf("n=%d", n)] = results
	}
	e := GetEdgeBatch()
	defer e.Release()
	for name, results := range cases {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(BatchResponse{Count: len(results), Results: results}); err != nil {
			t.Fatal(err)
		}
		if e.EncodeResponse(results); !bytes.Equal(e.out, want.Bytes()) {
			t.Errorf("%s: encoded %q, json.Encoder %q", name, e.out, want.Bytes())
		}
	}
}

// TestEdgeCodecZeroAlloc pins the steady state: on warmed buffers a
// fast-path decode and an encode allocate nothing.
func TestEdgeCodecZeroAlloc(t *testing.T) {
	body, _ := edgeBody(4096, "pairs", 7)
	e := GetEdgeBatch()
	defer e.Release()
	r := bytes.NewReader(body)
	decode := func() {
		r.Reset(body)
		if pairs, err := e.decode(r, int64(len(body)), 1<<20); err != nil || len(pairs) != 4096 {
			t.Fatalf("decode: %d pairs, %v", len(pairs), err)
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Errorf("fast-path decode allocates %.1f times per batch", allocs)
	}
	results := make([]bool, 4096)
	for i := range results {
		results[i] = i%3 == 0
	}
	encode := func() { e.EncodeResponse(results) }
	encode()
	if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
		t.Errorf("encode allocates %.1f times per batch", allocs)
	}
}

// TestEdgeBatchReleaseDropsLargeBuffers: a buffer one huge batch grew
// goes to the garbage collector, not back to the pool.
func TestEdgeBatchReleaseDropsLargeBuffers(t *testing.T) {
	e := &EdgeBatch{
		pairs: make([][2]uint64, edgePoolMaxBytes/16+1),
		out:   make([]byte, 0, 64),
	}
	e.body.Grow(edgePoolMaxBytes + 1)
	e.Release()
	if e.body.Cap() != 0 || e.pairs != nil || e.out == nil {
		t.Fatalf("after Release: body cap %d, pairs cap %d, out cap %d; want body and pairs dropped, out kept",
			e.body.Cap(), cap(e.pairs), cap(e.out))
	}
}

// FuzzEdgeDecode: for any body, under the byte cap, the codec returns
// the error text encoding/json returns, and on success the same pairs
// (on failure encoding/json leaves a partial decode that no handler
// reads); the fast path on its own either declines or agrees with
// encoding/json.
func FuzzEdgeDecode(f *testing.F) {
	for _, c := range EdgeCases {
		f.Add([]byte(c.Body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := plainDecode(capped(body, EdgeMaxPairs))
		e := GetEdgeBatch()
		defer e.Release()
		got, err := e.decode(capped(body, EdgeMaxPairs), int64(len(body)), EdgeMaxPairs)
		if errText(err) != errText(wantErr) || (err == nil && !slices.Equal(got, want)) {
			t.Fatalf("codec: %v, %q; encoding/json: %v, %q", got, errText(err), want, errText(wantErr))
		}
		if pairs, ok := e.parse(body, EdgeMaxPairs); ok {
			plain, err := plainDecode(bytes.NewReader(body))
			if err != nil || !slices.Equal(pairs, plain) {
				t.Fatalf("fast path took %q as %v; encoding/json: %v, %q", body, pairs, plain, errText(err))
			}
		}
	})
}

// BenchmarkEdgeCodec times the /v1/batch JSON edge on perfbench-shaped
// bodies: decoding through the fast path, decoding through the
// encoding/json fallback (the same pairs under a case-folded "Pairs"
// key, which the fast path declines at its first byte and
// encoding/json accepts), and encoding an answer.
func BenchmarkEdgeCodec(b *testing.B) {
	for _, n := range []int{32, 4096} {
		for _, path := range []struct{ name, key string }{{"fast", "pairs"}, {"fallback", "Pairs"}} {
			body, _ := edgeBody(n, path.key, 42)
			b.Run(fmt.Sprintf("decode/path=%s/pairs=%d", path.name, n), func(b *testing.B) {
				e := GetEdgeBatch()
				defer e.Release()
				r := bytes.NewReader(body)
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					r.Reset(body)
					if _, err := e.decode(r, int64(len(body)), 1<<20); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	b.Run("encode/pairs=4096", func(b *testing.B) {
		results := make([]bool, 4096)
		for i := range results {
			results[i] = i%7 == 0
		}
		e := GetEdgeBatch()
		defer e.Release()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.EncodeResponse(results)
		}
	})
}
