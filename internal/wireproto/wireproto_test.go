package wireproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

func testPairs(n int) [][2]uint32 {
	rng := rand.New(rand.NewSource(9))
	pairs := make([][2]uint32, n)
	for i := range pairs {
		pairs[i] = [2]uint32{rng.Uint32(), rng.Uint32()}
	}
	return pairs
}

func testResults(n int) []bool {
	rng := rand.New(rand.NewSource(11))
	res := make([]bool, n)
	for i := range res {
		res[i] = rng.Intn(2) == 1
	}
	return res
}

func TestRequestRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 512, 4096} {
		pairs := testPairs(n)
		buf := make([]byte, RequestSize(n))
		if got := EncodeRequest(buf, pairs); got != RequestSize(n) {
			t.Fatalf("n=%d: EncodeRequest wrote %d bytes, want %d", n, got, RequestSize(n))
		}
		count, err := RequestCount(buf)
		if err != nil || count != n {
			t.Fatalf("n=%d: RequestCount = %d, %v", n, count, err)
		}
		dec := make([][2]uint32, count)
		if err := DecodeRequest(buf, dec); err != nil {
			t.Fatalf("n=%d: DecodeRequest: %v", n, err)
		}
		for i := range pairs {
			if dec[i] != pairs[i] {
				t.Fatalf("n=%d: pair %d decoded %v, want %v", n, i, dec[i], pairs[i])
			}
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 127, 128, 512, 4097} {
		results := testResults(n)
		buf := make([]byte, ResponseSize(n))
		if got := EncodeResponse(buf, results); got != ResponseSize(n) {
			t.Fatalf("n=%d: EncodeResponse wrote %d bytes, want %d", n, got, ResponseSize(n))
		}
		count, err := ResponseCount(buf)
		if err != nil || count != n {
			t.Fatalf("n=%d: ResponseCount = %d, %v", n, count, err)
		}
		dec := make([]bool, count)
		if err := DecodeResponse(buf, dec); err != nil {
			t.Fatalf("n=%d: DecodeResponse: %v", n, err)
		}
		for i := range results {
			if dec[i] != results[i] {
				t.Fatalf("n=%d: result %d decoded %v, want %v", n, i, dec[i], results[i])
			}
		}
	}
}

func TestErrorFrameRoundTrip(t *testing.T) {
	const status = 503
	const msg = "request abandoned: context deadline exceeded"
	buf := make([]byte, ErrorSize(len(msg)))
	n := EncodeError(buf, status, msg)
	if n != ErrorSize(len(msg)) {
		t.Fatalf("EncodeError wrote %d bytes, want %d", n, ErrorSize(len(msg)))
	}
	if !IsError(buf) {
		t.Fatal("IsError = false on an error frame")
	}
	gotStatus, gotMsg, err := DecodeError(buf)
	if err != nil {
		t.Fatalf("DecodeError: %v", err)
	}
	if gotStatus != status || gotMsg != msg {
		t.Fatalf("DecodeError = (%d, %q), want (%d, %q)", gotStatus, gotMsg, status, msg)
	}

	// Error decoders must reject the other frame kinds and vice versa.
	req := make([]byte, RequestSize(1))
	EncodeRequest(req, [][2]uint32{{1, 2}})
	if IsError(req) {
		t.Fatal("IsError = true on a request frame")
	}
	if _, _, err := DecodeError(req); !errors.Is(err, ErrFrameKind) {
		t.Fatalf("DecodeError(request) = %v, want ErrFrameKind", err)
	}
	if _, err := RequestCount(buf); !errors.Is(err, ErrFrameKind) {
		t.Fatalf("RequestCount(error frame) = %v, want ErrFrameKind", err)
	}
	if _, err := ResponseCount(buf); !errors.Is(err, ErrFrameKind) {
		t.Fatalf("ResponseCount(error frame) = %v, want ErrFrameKind", err)
	}
}

func TestParseHeaderRejections(t *testing.T) {
	valid := make([]byte, RequestSize(2))
	EncodeRequest(valid, [][2]uint32{{1, 2}, {3, 4}})

	mutate := func(f func(b []byte)) []byte {
		b := bytes.Clone(valid)
		f(b)
		return b
	}
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", valid[:HeaderSize-1], ErrTruncated},
		{"bad magic", mutate(func(b []byte) { b[0] = 'X' }), ErrMagic},
		{"bad version", mutate(func(b []byte) { b[3] = 2 }), ErrVersion},
		{"unknown flags", mutate(func(b []byte) { b[4] = 0x80 }), ErrFlags},
		{"count too large", mutate(func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:12], MaxCount+1)
		}), ErrCount},
		{"single with 2 pairs", mutate(func(b []byte) { b[4] = byte(FlagSingle) }), ErrCount},
		{"cached with 2 results", mutate(func(b []byte) { b[4] = byte(FlagCached) }), ErrCount},
		{"single with 0 pairs", mutate(func(b []byte) {
			b[4] = byte(FlagSingle)
			binary.LittleEndian.PutUint32(b[8:12], 0)
		}), ErrCount},
	}
	for _, tc := range cases {
		if _, err := ParseHeader(tc.frame); !errors.Is(err, tc.want) {
			t.Errorf("%s: ParseHeader = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestSingleAndCachedFrames: a single request and a cached response
// round-trip, and every decoder refuses the two flags where they do not
// belong: cached on a request, single on a response, and either one
// beside the error or handshake bit.
func TestSingleAndCachedFrames(t *testing.T) {
	single := make([]byte, RequestSize(1))
	if n := EncodeSingle(single, 9, 4); n != len(single) {
		t.Fatalf("EncodeSingle wrote %d bytes, want %d", n, len(single))
	}
	if n, err := RequestCount(single); err != nil || n != 1 || !IsSingle(single) {
		t.Fatalf("single request: RequestCount = %d, %v; IsSingle = %v", n, err, IsSingle(single))
	}
	pair := make([][2]uint32, 1)
	if err := DecodeRequest(single, pair); err != nil || pair[0] != [2]uint32{9, 4} {
		t.Fatalf("single request decodes to %v, %v", pair, err)
	}
	batch := make([]byte, RequestSize(1))
	EncodeRequest(batch, pair)
	if IsSingle(batch) {
		t.Fatal("IsSingle = true on a one-pair batch")
	}

	for _, reachable := range []bool{false, true} {
		plain := make([]byte, ResponseSize(1))
		EncodeResponse(plain, []bool{reachable})
		uncached := make([]byte, ResponseSize(1))
		EncodeSingleResponse(uncached, reachable, false)
		if !bytes.Equal(plain, uncached) || IsCached(uncached) {
			t.Fatalf("uncached single response % x, want EncodeResponse's % x", uncached, plain)
		}
		cached := make([]byte, ResponseSize(1))
		EncodeSingleResponse(cached, reachable, true)
		got := make([]bool, 1)
		if n, err := ResponseCount(cached); err != nil || n != 1 || !IsCached(cached) {
			t.Fatalf("cached response: ResponseCount = %d, %v; IsCached = %v", n, err, IsCached(cached))
		}
		if err := DecodeResponse(cached, got); err != nil || got[0] != reachable {
			t.Fatalf("cached response decodes to %v, %v; want %v", got[0], err, reachable)
		}
	}

	withFlags := func(frame []byte, flags uint32) []byte {
		b := bytes.Clone(frame)
		binary.LittleEndian.PutUint32(b[4:8], flags)
		return b
	}
	resp := make([]byte, ResponseSize(1))
	EncodeSingleResponse(resp, true, true)
	if _, err := RequestCount(withFlags(single, FlagCached)); err != ErrFrameKind {
		t.Errorf("cached request: RequestCount = %v, want ErrFrameKind", err)
	}
	if _, err := ResponseCount(withFlags(resp, FlagSingle)); err != ErrFrameKind {
		t.Errorf("single response: ResponseCount = %v, want ErrFrameKind", err)
	}
	for _, flag := range []uint32{FlagSingle, FlagCached} {
		for _, kind := range []uint32{FlagError, FlagHandshake, FlagSingle | FlagCached} {
			for _, frame := range [][]byte{withFlags(single, flag|kind), withFlags(resp, flag|kind)} {
				if _, err := RequestCount(frame); err == nil {
					t.Errorf("flags %#x: RequestCount accepted it", flag|kind)
				}
				if _, err := ResponseCount(frame); err == nil {
					t.Errorf("flags %#x: ResponseCount accepted it", flag|kind)
				}
				if _, _, err := DecodeError(frame); err == nil {
					t.Errorf("flags %#x: DecodeError accepted it", flag|kind)
				}
				if _, _, err := DecodeHandshake(frame); err == nil {
					t.Errorf("flags %#x: DecodeHandshake accepted it", flag|kind)
				}
			}
		}
	}
}

func TestLengthMismatches(t *testing.T) {
	req := make([]byte, RequestSize(2))
	EncodeRequest(req, [][2]uint32{{1, 2}, {3, 4}})
	if _, err := RequestCount(req[:len(req)-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated request: %v, want ErrTruncated", err)
	}
	if _, err := RequestCount(append(bytes.Clone(req), 0)); !errors.Is(err, ErrLength) {
		t.Fatalf("overlong request: %v, want ErrLength", err)
	}
	if err := DecodeRequest(req, make([][2]uint32, 3)); !errors.Is(err, ErrBuffer) {
		t.Fatalf("mis-sized decode buffer: %v, want ErrBuffer", err)
	}

	resp := make([]byte, ResponseSize(3))
	EncodeResponse(resp, []bool{true, false, true})
	if _, err := ResponseCount(resp[:len(resp)-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated response: %v, want ErrTruncated", err)
	}
	if err := DecodeResponse(resp, make([]bool, 4)); !errors.Is(err, ErrBuffer) {
		t.Fatalf("mis-sized response buffer: %v, want ErrBuffer", err)
	}

	// Padding bits past the result count must be zero.
	dirty := bytes.Clone(resp)
	dirty[len(dirty)-1] |= 0x80 // bit 63 of the only word; count is 3
	if _, err := ResponseCount(dirty); !errors.Is(err, ErrPadding) {
		t.Fatalf("dirty padding: %v, want ErrPadding", err)
	}
}

// TestCodecZeroAlloc pins the //reach:hotpath contract: encoding and
// decoding a batch allocates nothing on either side. The hotpathalloc
// analyzer rejects allocating constructs line-by-line; this pins the
// whole-function truth.
func TestCodecZeroAlloc(t *testing.T) {
	const n = 512
	pairs := testPairs(n)
	results := testResults(n)
	reqBuf := make([]byte, RequestSize(n))
	respBuf := make([]byte, ResponseSize(n))
	decPairs := make([][2]uint32, n)
	decResults := make([]bool, n)
	EncodeRequest(reqBuf, pairs)
	EncodeResponse(respBuf, results)

	pin := func(name string, f func()) {
		t.Helper()
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %.1f times per op, want 0", name, allocs)
		}
	}
	pin("EncodeRequest", func() { EncodeRequest(reqBuf, pairs) })
	pin("DecodeRequest", func() {
		if _, err := RequestCount(reqBuf); err != nil {
			t.Fatal(err)
		}
		if err := DecodeRequest(reqBuf, decPairs); err != nil {
			t.Fatal(err)
		}
	})
	pin("EncodeResponse", func() { EncodeResponse(respBuf, results) })
	pin("DecodeResponse", func() {
		if _, err := ResponseCount(respBuf); err != nil {
			t.Fatal(err)
		}
		if err := DecodeResponse(respBuf, decResults); err != nil {
			t.Fatal(err)
		}
	})

	single := reqBuf[:RequestSize(1)]
	cached := respBuf[:ResponseSize(1)]
	pin("EncodeSingle", func() { EncodeSingle(single, 3, 9) })
	pin("DecodeSingle", func() {
		if n, err := RequestCount(single); err != nil || n != 1 || !IsSingle(single) {
			t.Fatal(n, err)
		}
		if err := DecodeRequest(single, decPairs[:1]); err != nil {
			t.Fatal(err)
		}
	})
	pin("EncodeSingleResponse", func() { EncodeSingleResponse(cached, true, true) })
	pin("DecodeCachedResponse", func() {
		if n, err := ResponseCount(cached); err != nil || n != 1 || !IsCached(cached) {
			t.Fatal(n, err)
		}
		if err := DecodeResponse(cached, decResults[:1]); err != nil {
			t.Fatal(err)
		}
	})
}
