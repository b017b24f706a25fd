package server

// The binary batch path: /v1/batch spoken in wireproto frames instead of
// JSON. Same endpoint, same semantics (results[i] answers pairs[i],
// unknown vertices answer false), same limits and overload behavior —
// only the encoding differs, selected per request by Content-Type so
// routers and JSON clients share one port. The handler allocates nothing per
// request in steady state: frame, pair and result buffers come from a
// pool and the codec fills them in place. docs/WIRE.md is the normative
// frame spec.

import (
	"context"
	"errors"
	"io"
	"mime"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/wireproto"
)

// isBinaryBatch reports whether a /v1/batch request negotiated the
// binary frame protocol via its Content-Type.
func isBinaryBatch(r *http.Request) bool {
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	return err == nil && mt == wireproto.ContentType
}

// wireScratch is one binary request's worth of reusable buffers. frame
// holds the request frame and is reused for the (never larger) response
// frame; pairs and out are the decoded batch and its answers.
type wireScratch struct {
	frame []byte
	pairs [][2]uint32
	out   []bool
}

var wireScratchPool = sync.Pool{New: func() any { return new(wireScratch) }}

// writeErrorFrame answers a binary-mode request with a wireproto error
// frame: a binary peer never has to parse JSON to learn why a batch
// failed.
func (s *Server) writeErrorFrame(w http.ResponseWriter, status int, msg string) {
	buf := make([]byte, wireproto.ErrorSize(len(msg)))
	n := wireproto.EncodeError(buf, status, msg)
	w.Header().Set("Content-Type", wireproto.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(status)
	w.Write(buf[:n])
	s.met.wireTxBinary.Add(int64(n))
}

// failBinary is writeErrorFrame plus the error-counter bump — the
// binary-path sibling of fail. (The gate's 429 uses writeErrorFrame
// directly: rejections are counted in rejected, not errors, on both
// encodings.)
func (s *Server) failBinary(w http.ResponseWriter, status int, msg string) {
	s.met.errors.Add(1)
	s.writeErrorFrame(w, status, msg)
}

// failBinaryTimeout is failTimeout for the binary path: 503 as an error
// frame, with the same timed_out accounting.
func (s *Server) failBinaryTimeout(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.met.timedOut.Add(1)
	}
	s.failBinary(w, http.StatusServiceUnavailable, "request abandoned: "+err.Error())
}

// handleBatchBinary serves one wireproto request frame. The body is read
// in two steps — header first, then exactly the payload the header's
// count implies — so a hostile count never sizes a buffer before the
// length arithmetic has bounded it against MaxBatchPairs.
func (s *Server) handleBatchBinary(w http.ResponseWriter, r *http.Request) {
	tr := s.startTrace(w, r)
	done := func(pairs, status int) { s.finishTrace(w, tr, s.met.reqBatch, "batch", pairs, status) }
	s.met.wireFramesBinary.Add(1)

	// +1 so a body one byte past the largest legal frame reads as
	// "too large" rather than truncating silently at the limit.
	body := http.MaxBytesReader(w, r.Body, int64(wireproto.RequestSize(s.cfg.MaxBatchPairs))+1)
	sc := wireScratchPool.Get().(*wireScratch)
	defer wireScratchPool.Put(sc)

	if cap(sc.frame) < wireproto.HeaderSize {
		sc.frame = make([]byte, wireproto.RequestSize(1024))
	}
	if _, err := io.ReadFull(body, sc.frame[:wireproto.HeaderSize]); err != nil {
		s.failBinaryRead(w, r, done, err)
		return
	}
	h, err := wireproto.ParseHeader(sc.frame[:wireproto.HeaderSize])
	if err != nil {
		done(0, http.StatusBadRequest)
		s.failBinary(w, http.StatusBadRequest, "bad batch frame: "+err.Error())
		return
	}
	if h.Flags != 0 {
		done(0, http.StatusBadRequest)
		s.failBinary(w, http.StatusBadRequest, "bad batch frame: not a request frame")
		return
	}
	count := int(h.Count)
	if count > s.cfg.MaxBatchPairs {
		done(count, http.StatusRequestEntityTooLarge)
		s.failBinary(w, http.StatusRequestEntityTooLarge,
			"batch of "+strconv.Itoa(count)+" pairs exceeds limit "+strconv.Itoa(s.cfg.MaxBatchPairs))
		return
	}
	size := wireproto.RequestSize(count)
	if cap(sc.frame) < size {
		grown := make([]byte, size)
		copy(grown, sc.frame[:wireproto.HeaderSize])
		sc.frame = grown
	}
	frame := sc.frame[:size]
	if _, err := io.ReadFull(body, frame[wireproto.HeaderSize:]); err != nil {
		s.failBinaryRead(w, r, done, err)
		return
	}
	// One frame per body: trailing bytes mean a confused (or hostile)
	// sender, and silently ignoring them would desync a reused connection.
	var trailer [1]byte
	if n, _ := body.Read(trailer[:]); n != 0 {
		done(count, http.StatusBadRequest)
		s.failBinary(w, http.StatusBadRequest, "bad batch frame: trailing bytes after frame")
		return
	}
	s.met.wireRxBinary.Add(int64(size))
	tr.decode = time.Since(tr.start)

	if cap(sc.pairs) < count {
		sc.pairs = make([][2]uint32, count)
	}
	pairs := sc.pairs[:count]
	if err := wireproto.DecodeRequest(frame, pairs); err != nil {
		done(count, http.StatusBadRequest)
		s.failBinary(w, http.StatusBadRequest, "bad batch frame: "+err.Error())
		return
	}
	s.met.batchRequests.Add(1)
	if err := r.Context().Err(); err != nil {
		done(count, http.StatusServiceUnavailable)
		s.failBinaryTimeout(w, err)
		return
	}
	// Resolve in place: wire IDs are uint32 by construction (clients with
	// wider IDs fall back to JSON), unknown IDs answer false like the
	// JSON batch path.
	t0 := time.Now()
	for i := range pairs {
		du, _ := s.resolve(uint64(pairs[i][0]))
		dv, _ := s.resolve(uint64(pairs[i][1]))
		pairs[i][0], pairs[i][1] = du, dv
	}
	tr.resolve = time.Since(t0)

	if cap(sc.out) < count {
		sc.out = make([]bool, count)
	}
	out := sc.out[:count]
	if err := s.reachableBatchInto(r.Context(), pairs, out, &tr.qt); err != nil {
		done(count, http.StatusServiceUnavailable)
		s.failBinaryTimeout(w, err)
		return
	}
	// The response reuses the request's frame buffer: ResponseSize(n) is
	// never larger than RequestSize(n) (results are bit-packed).
	respLen := wireproto.EncodeResponse(frame, out)
	done(count, http.StatusOK)
	w.Header().Set("Content-Type", wireproto.ContentType)
	w.Header().Set("Content-Length", strconv.Itoa(respLen))
	w.WriteHeader(http.StatusOK)
	w.Write(frame[:respLen])
	s.met.wireTxBinary.Add(int64(respLen))
}

// failBinaryRead classifies a body-read failure the same way the JSON
// batch handler does: over the byte cap → 413, cut by the request
// deadline → 503, anything else → 400 truncated frame.
func (s *Server) failBinaryRead(w http.ResponseWriter, r *http.Request, done func(int, int), err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		done(0, http.StatusRequestEntityTooLarge)
		s.failBinary(w, http.StatusRequestEntityTooLarge,
			"batch body exceeds "+strconv.FormatInt(tooLarge.Limit, 10)+" bytes")
		return
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		done(0, http.StatusServiceUnavailable)
		s.failBinaryTimeout(w, context.DeadlineExceeded)
		return
	}
	if ctxErr := r.Context().Err(); ctxErr != nil {
		done(0, http.StatusServiceUnavailable)
		s.failBinaryTimeout(w, ctxErr)
		return
	}
	done(0, http.StatusBadRequest)
	s.failBinary(w, http.StatusBadRequest, "bad batch frame: body truncated")
}
