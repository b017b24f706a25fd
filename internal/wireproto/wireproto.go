// Package wireproto is the binary batch protocol spoken between the
// fleet router and reachd replicas over the stream transport
// (internal/mux): length-prefixed frames of fixed-width little-endian
// integers — the blockio snapshot idiom applied to the wire. A 512-pair
// request is 4108 bytes instead of ~7 KB of JSON, and neither side
// allocates to encode or decode it.
//
// The byte-level layout is specified normatively in docs/WIRE.md;
// TestWireSpecInSync round-trips the spec's example frames through this
// codec so the document cannot drift from the code. The wirewidth
// analyzer covers this package, so platform-width integers and varints
// cannot creep into the format.
//
// The codec never allocates: encoders write into caller-provided
// buffers sized with RequestSize/ResponseSize/ErrorSize, and decoders
// fill caller-provided slices sized from RequestCount/ResponseCount.
// Decode functions never panic on hostile input — every length is
// checked before it is trusted (FuzzWireDecode and the corruption sweep
// in corruption_test.go pin that).
package wireproto

import (
	"encoding/binary"
	"errors"
)

// Frame geometry. All integers on the wire are little-endian.
const (
	// Version is the protocol revision carried in every frame's fourth
	// byte. A receiver rejects frames with any other value.
	Version = 1

	// HeaderSize is the fixed prefix every frame starts with: 3 magic
	// bytes, 1 version byte, 4 flag bytes, 4 count bytes.
	HeaderSize = 12

	// pairBytes is one request pair record: u uint32, v uint32.
	pairBytes = 8

	// wordBytes is one response result word: 64 answers, bit-packed.
	wordBytes = 8

	// errorStatusBytes is the status field of an error frame's payload.
	errorStatusBytes = 4

	// MaxCount caps the header's count field: 2^28 pairs is a 2 GiB
	// request frame, far beyond any configured batch limit, so larger
	// counts can only be garbage (and must be rejected before they size
	// a buffer).
	MaxCount = 1 << 28

	// MaxErrorMsg caps an error frame's message length. Real error
	// messages are one line; a count past this is garbage, and the cap
	// keeps a hostile frame from making DecodeError build a huge string.
	// 4096 matches the body cap HTTP clients already apply when reading
	// error responses.
	MaxErrorMsg = 4096
)

// Frame flags (bits of the header's flags field). Unknown bits are a
// decode error, so future flags cannot be silently ignored by old code.
const (
	// FlagError marks an error frame: count is the message byte length
	// and the payload is a status code plus the message.
	FlagError uint32 = 1 << 0

	// FlagHandshake marks a stream-transport handshake frame: count is
	// the fingerprint byte length and the payload is a capability mask
	// plus the snapshot fingerprint (see stream.go and docs/WIRE.md).
	FlagHandshake uint32 = 1 << 1

	// knownFlags masks the flag bits this Version defines.
	knownFlags = FlagError | FlagHandshake
)

// Magic is the 3-byte frame signature: ASCII "RWB" (reach wire batch).
var Magic = [3]byte{'R', 'W', 'B'}

// Decode errors. All are sentinels so hot-path decoders return them
// without allocating.
var (
	// ErrTruncated: the frame ends before its header or declared payload.
	ErrTruncated = errors.New("wireproto: truncated frame")
	// ErrMagic: the first three bytes are not "RWB".
	ErrMagic = errors.New("wireproto: bad magic (not a reach wire frame)")
	// ErrVersion: the version byte is not a revision this code speaks.
	ErrVersion = errors.New("wireproto: unsupported frame version")
	// ErrFlags: the flags field has bits set that this version does not define.
	ErrFlags = errors.New("wireproto: unknown flag bits set")
	// ErrCount: the count field exceeds MaxCount.
	ErrCount = errors.New("wireproto: frame count out of range")
	// ErrLength: the frame's byte length disagrees with its count field.
	ErrLength = errors.New("wireproto: frame length disagrees with count")
	// ErrPadding: a response frame's trailing padding bits are not zero.
	ErrPadding = errors.New("wireproto: nonzero padding bits in response")
	// ErrFrameKind: the frame's flags name a different kind than the
	// decoder called (e.g. DecodeError on a non-error frame).
	ErrFrameKind = errors.New("wireproto: frame is not of the requested kind")
	// ErrBuffer: the caller-provided destination slice does not match
	// the frame's count (size it with RequestCount/ResponseCount first).
	ErrBuffer = errors.New("wireproto: destination buffer length does not match frame count")
	// ErrMsgLen: a variable-length text field (error message, handshake
	// fingerprint) exceeds its cap (MaxErrorMsg / MaxFingerprint) — the
	// count is rejected before it sizes anything.
	ErrMsgLen = errors.New("wireproto: text field exceeds length cap")
)

// Header is the fixed 12-byte prefix every frame starts with. The field
// order is the wire order; every field is fixed-width so the layout
// means the same thing on every architecture.
//
//reach:wire
type Header struct {
	Magic   [3]uint8 // "RWB"
	Version uint8    // Version
	Flags   uint32   // LE; see FlagError
	Count   uint32   // LE; pairs (request), results (response), message bytes (error)
}

// ParseHeader validates the shared frame prefix and returns it. It
// checks magic, version, flag bits and the count bound — everything
// except the kind-specific length arithmetic, which RequestCount,
// ResponseCount and DecodeError add.
func ParseHeader(frame []byte) (Header, error) {
	var h Header
	if len(frame) < HeaderSize {
		return h, ErrTruncated
	}
	if frame[0] != Magic[0] || frame[1] != Magic[1] || frame[2] != Magic[2] {
		return h, ErrMagic
	}
	if frame[3] != Version {
		return h, ErrVersion
	}
	h.Magic = Magic
	h.Version = frame[3]
	h.Flags = binary.LittleEndian.Uint32(frame[4:8])
	h.Count = binary.LittleEndian.Uint32(frame[8:12])
	if h.Flags&^uint32(knownFlags) != 0 {
		return h, ErrFlags
	}
	if h.Count > MaxCount {
		return h, ErrCount
	}
	return h, nil
}

// RequestSize returns the byte length of a request frame carrying n
// pairs.
func RequestSize(n int) int { return HeaderSize + pairBytes*n }

// ResponseSize returns the byte length of a response frame carrying n
// results. Results are bit-packed into uint64 words, so a response is
// ~64x smaller than its request.
func ResponseSize(n int) int { return HeaderSize + wordBytes*((n+63)/64) }

// ErrorSize returns the byte length of an error frame whose message is
// msgLen bytes.
func ErrorSize(msgLen int) int { return HeaderSize + errorStatusBytes + msgLen }

// putHeader writes the shared frame prefix.
//
//reach:hotpath
func putHeader(buf []byte, flags, count uint32) {
	buf[0], buf[1], buf[2] = Magic[0], Magic[1], Magic[2]
	buf[3] = Version
	binary.LittleEndian.PutUint32(buf[4:8], flags)
	binary.LittleEndian.PutUint32(buf[8:12], count)
}

// EncodeRequest writes a request frame for pairs into buf and returns
// the frame length. buf must be at least RequestSize(len(pairs)) bytes
// (a short buffer panics — this is the programmer's error, not the
// peer's); len(pairs) must not exceed MaxCount.
//
//reach:hotpath
func EncodeRequest(buf []byte, pairs [][2]uint32) int {
	putHeader(buf, 0, uint32(len(pairs)))
	off := HeaderSize
	for i := range pairs {
		binary.LittleEndian.PutUint32(buf[off:], pairs[i][0])
		binary.LittleEndian.PutUint32(buf[off+4:], pairs[i][1])
		off += pairBytes
	}
	return off
}

// RequestCount fully validates frame as a request and returns its pair
// count. After it succeeds, DecodeRequest into a slice of exactly that
// length cannot fail.
func RequestCount(frame []byte) (int, error) {
	h, err := ParseHeader(frame)
	if err != nil {
		return 0, err
	}
	if h.Flags != 0 {
		return 0, ErrFrameKind
	}
	if len(frame) != RequestSize(int(h.Count)) {
		if len(frame) < RequestSize(int(h.Count)) {
			return 0, ErrTruncated
		}
		return 0, ErrLength
	}
	return int(h.Count), nil
}

// DecodeRequest fills pairs from a request frame previously validated
// with RequestCount; len(pairs) must equal the validated count.
//
//reach:hotpath
func DecodeRequest(frame []byte, pairs [][2]uint32) error {
	if len(frame) != RequestSize(len(pairs)) ||
		binary.LittleEndian.Uint32(frame[8:12]) != uint32(len(pairs)) {
		return ErrBuffer
	}
	off := HeaderSize
	for i := range pairs {
		pairs[i][0] = binary.LittleEndian.Uint32(frame[off:])
		pairs[i][1] = binary.LittleEndian.Uint32(frame[off+4:])
		off += pairBytes
	}
	return nil
}

// EncodeResponse writes a response frame for results into buf and
// returns the frame length. Results are packed LSB-first: result i is
// bit i%64 of word i/64; padding bits of the last word are zero. buf
// must be at least ResponseSize(len(results)) bytes.
//
//reach:hotpath
func EncodeResponse(buf []byte, results []bool) int {
	putHeader(buf, 0, uint32(len(results)))
	off := HeaderSize
	var word uint64
	for i := range results {
		if results[i] {
			word |= 1 << (uint(i) & 63)
		}
		if i&63 == 63 {
			binary.LittleEndian.PutUint64(buf[off:], word)
			off += wordBytes
			word = 0
		}
	}
	if len(results)&63 != 0 {
		binary.LittleEndian.PutUint64(buf[off:], word)
		off += wordBytes
	}
	return off
}

// ResponseCount fully validates frame as a response and returns its
// result count. Padding bits past the count in the final word must be
// zero — a frame violating that is corrupt, not merely sloppy, because
// encoders never produce it. After ResponseCount succeeds,
// DecodeResponse into a slice of exactly that length cannot fail.
func ResponseCount(frame []byte) (int, error) {
	h, err := ParseHeader(frame)
	if err != nil {
		return 0, err
	}
	if h.Flags != 0 {
		return 0, ErrFrameKind
	}
	n := int(h.Count)
	if len(frame) != ResponseSize(n) {
		if len(frame) < ResponseSize(n) {
			return 0, ErrTruncated
		}
		return 0, ErrLength
	}
	if n%64 != 0 {
		last := binary.LittleEndian.Uint64(frame[len(frame)-wordBytes:])
		if last>>(uint(n)%64) != 0 {
			return 0, ErrPadding
		}
	}
	return n, nil
}

// DecodeResponse fills results from a response frame previously
// validated with ResponseCount; len(results) must equal the validated
// count.
//
//reach:hotpath
func DecodeResponse(frame []byte, results []bool) error {
	// ResponseSize is not injective (3 and 64 results round to whole
	// words the same way), so the frame's own count field is the check
	// that catches a mis-sized destination.
	if len(frame) != ResponseSize(len(results)) ||
		binary.LittleEndian.Uint32(frame[8:12]) != uint32(len(results)) {
		return ErrBuffer
	}
	off := HeaderSize
	var word uint64
	for i := range results {
		if i&63 == 0 {
			word = binary.LittleEndian.Uint64(frame[off:])
			off += wordBytes
		}
		results[i] = word&1 != 0
		word >>= 1
	}
	return nil
}

// EncodeError writes an error frame into buf and returns the frame
// length: status is the HTTP-shaped status code the peer should act on
// (carried in-band, so the stream transport needs no side channel), msg
// a human-readable reason. buf must be at least ErrorSize(len(msg))
// bytes. Error frames are off the hot path — they exist so a
// binary-mode peer never has to parse JSON to learn why a batch failed.
func EncodeError(buf []byte, status int, msg string) int {
	putHeader(buf, FlagError, uint32(len(msg)))
	binary.LittleEndian.PutUint32(buf[HeaderSize:], uint32(status))
	copy(buf[HeaderSize+errorStatusBytes:], msg)
	return ErrorSize(len(msg))
}

// IsError reports whether frame is (at least headerwise) a valid error
// frame, without validating its payload length. The flags must be
// exactly FlagError: a frame mixing error with other kind bits is
// corrupt, because encoders never produce one.
func IsError(frame []byte) bool {
	h, err := ParseHeader(frame)
	return err == nil && h.Flags == FlagError
}

// DecodeError validates frame as an error frame and returns its status
// code and message. A count past MaxErrorMsg is rejected (ErrMsgLen)
// before any length arithmetic or string building trusts it.
func DecodeError(frame []byte) (status int, msg string, err error) {
	h, err := ParseHeader(frame)
	if err != nil {
		return 0, "", err
	}
	if h.Flags != FlagError {
		return 0, "", ErrFrameKind
	}
	if h.Count > MaxErrorMsg {
		return 0, "", ErrMsgLen
	}
	if len(frame) != ErrorSize(int(h.Count)) {
		if len(frame) < ErrorSize(int(h.Count)) {
			return 0, "", ErrTruncated
		}
		return 0, "", ErrLength
	}
	status = int(binary.LittleEndian.Uint32(frame[HeaderSize:]))
	msg = string(frame[HeaderSize+errorStatusBytes:])
	return status, msg, nil
}
