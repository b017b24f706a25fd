package server

// The /v1/batch JSON edge. Both binaries take client batches as JSON —
// reachd on its own port, the fleet router in front of the replicas —
// and both go through this one codec, so they accept the same bodies
// under the same byte cap and answer them with the same bytes.
//
// Decoding reads a body that declares its length into a pooled buffer
// and parses the compact canonical shape {"pairs":[[u,v],...]} with a
// strict, allocation-free fast path. Whatever the fast path does not
// recognise goes to encoding/json over the same bytes, followed by the
// same read error, so every body keeps the verdict, pairs and error
// text the plain decoder gives it. Encoding writes
// {"count":N,"results":[...]}\n by index into a pooled buffer, byte for
// byte what json.Encoder writes.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// maxBatchBodyBytes is the byte cap on a JSON /v1/batch body for an
// endpoint accepting at most maxPairs pairs. A compactly encoded pair
// of two 20-digit uint64 IDs plus its punctuation costs about 46 bytes;
// 48 covers it, so any compact batch within the pair limit also fits
// the cap. Whitespace-heavy encodings (MarshalIndent) can trip it
// earlier; the 413 body names the byte limit for that case.
//
// A body the fast path declines is held twice while encoding/json
// decides it: once in the EdgeBatch's read buffer and once in the
// decoder's own. So one request can hold about twice the cap (each
// buffer also keeps its growth slack), where a plain decoder held it
// once. Only bodies that declare a length within the cap are read
// ahead; any other goes to encoding/json unbuffered.
func maxBatchBodyBytes(maxPairs int) int64 { return 48*int64(maxPairs) + 4096 }

// edgePoolMaxBytes bounds what a pooled EdgeBatch keeps: a buffer that
// grew past it for one huge batch is dropped, not pooled, so it cannot
// pin memory after the batch is answered.
const edgePoolMaxBytes = 1 << 20

// EdgeBatch holds one JSON /v1/batch request's reusable buffers: the
// body as read, the pairs the fast path decodes into, and the encoded
// response. Take one with GetEdgeBatch and hand it back with Release
// once the response is written and nothing reads the decoded pairs.
type EdgeBatch struct {
	in    countingReader
	body  bytes.Buffer
	pairs [][2]uint64
	out   []byte
}

var edgePool = sync.Pool{New: func() any { return new(EdgeBatch) }}

// GetEdgeBatch takes an EdgeBatch from the pool.
func GetEdgeBatch() *EdgeBatch { return edgePool.Get().(*EdgeBatch) }

// Release returns e to the pool. The pairs ReadRequest returned and the
// bytes EncodeResponse produced are invalid from then on.
func (e *EdgeBatch) Release() {
	e.in = countingReader{}
	if e.body.Cap() > edgePoolMaxBytes {
		e.body = bytes.Buffer{}
	}
	if cap(e.pairs)*16 > edgePoolMaxBytes {
		e.pairs = nil
	}
	if cap(e.out) > edgePoolMaxBytes {
		e.out = nil
	}
	edgePool.Put(e)
}

// ReadRequest reads r's body under the byte cap for maxPairs and
// decodes it. A body over the cap fails with *http.MaxBytesError, a
// read cut by a deadline with that read's error, and anything else
// encoding/json rejects with its error. The pairs stay valid until
// Release. w is handed to http.MaxBytesReader, which marks the
// connection for closing when the cap trips.
//
// A body whose Content-Length is within the cap is read to its end
// before parsing, so a client that sends a complete value and then
// stalls short of its declared length waits for the read deadline,
// where a plain decoder answered at the value's end. A body with no
// declared length (chunked) or one declaring more than the cap goes
// straight to encoding/json, which reads it as it streams in.
func (e *EdgeBatch) ReadRequest(w http.ResponseWriter, r *http.Request, maxPairs int) ([][2]uint64, error) {
	e.in = countingReader{r: http.MaxBytesReader(w, r.Body, maxBatchBodyBytes(maxPairs))}
	return e.decode(&e.in, r.ContentLength, maxPairs)
}

// BodyBytes is how many body bytes the last ReadRequest read.
func (e *EdgeBatch) BodyBytes() int64 { return e.in.n }

// decode decodes body, which declares size bytes (-1 when unknown).
// When size is within the cap it reads body to its end and tries the
// fast path, provided the read finished cleanly. Otherwise
// encoding/json decodes the bytes already taken and then body again,
// which repeats the error that ended the first read (net/http's
// MaxBytesReader keeps returning it), so it sees exactly the stream a
// plain decoder over body would.
func (e *EdgeBatch) decode(body io.Reader, size int64, maxPairs int) ([][2]uint64, error) {
	e.body.Reset()
	if size >= 0 && size <= maxBatchBodyBytes(maxPairs) {
		if _, err := e.body.ReadFrom(body); err == nil {
			if pairs, ok := e.parse(e.body.Bytes(), maxPairs); ok {
				return pairs, nil
			}
		}
		body = io.MultiReader(bytes.NewReader(e.body.Bytes()), body)
	}
	var req BatchRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	return req.Pairs, nil
}

// batchPrefix opens every body the fast path takes.
const batchPrefix = `{"pairs":[`

// parse is the fast path: it decodes b when b is exactly
//
//	{"pairs":[[u,v],...]}
//
// with no whitespace, at most maxPairs pairs, and u, v plain decimal
// integers (no sign, leading zero, fraction or exponent) no larger than
// math.MaxUint64. It reports false for anything else, which the caller
// hands to encoding/json: whitespace, other, extra, duplicate, escaped
// or case-folded keys, null, pair arrays of another length, trailing
// bytes, overflow, and batches over the limit, whose 413 names the
// count encoding/json decodes. The pair slice grows as pairs parse, so
// a declined body costs no more scratch than the pairs before the
// point where it was declined.
func (e *EdgeBatch) parse(b []byte, maxPairs int) ([][2]uint64, bool) {
	if !matchAt(b, 0, batchPrefix) {
		return nil, false
	}
	pairs, i := e.pairs[:0], len(batchPrefix)
	if !hasAt(b, i, ']') {
		for {
			if len(pairs) == maxPairs {
				return nil, false
			}
			p, next, ok := parsePair(b, i)
			if !ok {
				return nil, false
			}
			if len(pairs) == cap(pairs) {
				// Double by hand: append's 1.25x steps on large slices
				// would allocate about five times the final size in all.
				pairs = append(make([][2]uint64, 0, min(max(2*len(pairs), 256), maxPairs)), pairs...)
			}
			pairs = append(pairs, p)
			if i = next; !hasAt(b, i, ',') {
				break
			}
			i++
		}
	}
	e.pairs = pairs
	return pairs, matchAt(b, i, "]}") && i+2 == len(b)
}

// parsePair reads one pair "[u,v]" at b[i:] and returns it with the
// index just past its "]".
//
//reach:hotpath
func parsePair(b []byte, i int) ([2]uint64, int, bool) {
	if !hasAt(b, i, '[') {
		return [2]uint64{}, i, false
	}
	u, i, ok := parseUint(b, i+1)
	if !ok || !hasAt(b, i, ',') {
		return [2]uint64{}, i, false
	}
	v, i, ok := parseUint(b, i+1)
	if !ok || !hasAt(b, i, ']') {
		return [2]uint64{}, i, false
	}
	return [2]uint64{u, v}, i + 1, true
}

// parseUint reads a plain decimal integer at b[i:], returning it and
// the index after its last digit. It fails on no digits, a leading
// zero, and a value above math.MaxUint64.
//
//reach:hotpath
func parseUint(b []byte, i int) (uint64, int, bool) {
	start := i
	var v uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v = v*10 + uint64(b[i]-'0')
	}
	switch n := i - start; {
	case n == 0, n > 1 && b[start] == '0', n > len(maxUint64Digits):
		return 0, i, false
	case n == len(maxUint64Digits):
		// Digit strings of one length order as their values do; past
		// math.MaxUint64 the sum above has wrapped.
		for k := 0; k < n; k++ {
			if c := b[start+k]; c != maxUint64Digits[k] {
				if c > maxUint64Digits[k] {
					return 0, i, false
				}
				break
			}
		}
	}
	return v, i, true
}

// maxUint64Digits is math.MaxUint64 in decimal.
const maxUint64Digits = "18446744073709551615"

// hasAt reports whether b[i] exists and is c.
//
//reach:hotpath
func hasAt(b []byte, i int, c byte) bool { return i < len(b) && b[i] == c }

// matchAt reports whether s occurs in b at index i.
//
//reach:hotpath
func matchAt(b []byte, i int, s string) bool {
	if len(b)-i < len(s) {
		return false
	}
	for k := 0; k < len(s); k++ {
		if b[i+k] != s[k] {
			return false
		}
	}
	return true
}

// EncodeResponse encodes the answer to a batch into e: exactly what
// json.NewEncoder(w).Encode(BatchResponse{Count: len(results), Results:
// results}) writes, trailing newline included. WriteResponse sends it.
// The two are split so a handler can time the encoding and report it
// in headers that must precede the body.
func (e *EdgeBatch) EncodeResponse(results []bool) {
	if need := batchResponseMaxBytes(len(results)); cap(e.out) < need {
		e.out = make([]byte, need)
	}
	e.out = e.out[:putBatchResponse(e.out[:cap(e.out)], results)]
}

// WriteResponse writes the encoded answer as a 200 with its
// Content-Length, in one Write.
func (e *EdgeBatch) WriteResponse(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(e.out)))
	w.WriteHeader(http.StatusOK)
	w.Write(e.out)
}

// batchResponseMaxBytes bounds the encoded answer to n results: the
// fixed text, a count of at most 20 digits, and at most 6 bytes
// ("false,") per result.
func batchResponseMaxBytes(n int) int {
	return len(`{"count":`) + 20 + len(`,"results":[`) + 6*n + len("]}\n")
}

// putBatchResponse writes the answer for results into buf, which must
// hold batchResponseMaxBytes(len(results)) bytes, and returns its
// length.
//
//reach:hotpath
func putBatchResponse(buf []byte, results []bool) int {
	i := copy(buf, `{"count":`)
	i += len(strconv.AppendUint(buf[i:i], uint64(len(results)), 10))
	if results == nil {
		return i + copy(buf[i:], ",\"results\":null}\n")
	}
	i += copy(buf[i:], `,"results":[`)
	for k, r := range results {
		if k > 0 {
			buf[i] = ','
			i++
		}
		if r {
			buf[i], buf[i+1], buf[i+2], buf[i+3] = 't', 'r', 'u', 'e'
			i += 4
		} else {
			buf[i], buf[i+1], buf[i+2], buf[i+3], buf[i+4] = 'f', 'a', 'l', 's', 'e'
			i += 5
		}
	}
	return i + copy(buf[i:], "]}\n")
}

// countingReader tallies the bytes read from a request body, for the
// reach_wire_bytes_total{direction="rx"} accounting.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
