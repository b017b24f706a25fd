// Stream transport layer: the envelope and handshake frames that let
// wireproto batch frames travel over a persistent multiplexed TCP
// connection (internal/mux), many batches in flight at once.
//
// Every frame on a stream connection is preceded by a fixed 12-byte
// envelope naming the stream it belongs to, so many batches can be in
// flight on one connection and responses can return in any order. The
// first frame in each direction is a handshake carrying a capability
// mask and the snapshot fingerprint, so the enrollment-grade identity
// check the router performs over HTTP survives raw-TCP reconnects.
//
// The byte-level layout is specified normatively in docs/WIRE.md
// ("Stream transport") and pinned by TestWireSpecInSync.
package wireproto

import (
	"encoding/binary"
	"errors"
)

// Stream envelope geometry. All integers little-endian, like frames.
const (
	// EnvelopeSize is the fixed prefix before every frame on a stream
	// connection: 4 stream-ID bytes, 4 envelope-flag bytes, 4 frame
	// byte-length bytes.
	EnvelopeSize = 12

	// traceLenBytes is the length prefix of the optional trace field.
	traceLenBytes = 4

	// MaxTraceBytes caps the optional trace field. Trace IDs are
	// 16 bytes when minted in-process; the headroom admits longer
	// client-supplied IDs without letting the field become a payload.
	MaxTraceBytes = 128

	// MaxFingerprint caps a handshake frame's fingerprint length
	// (in-process fingerprints are 16 hex bytes).
	MaxFingerprint = 64

	// handshakeCapBytes is the capability mask field of a handshake
	// frame's payload.
	handshakeCapBytes = 4
)

// Envelope flags (bits of the envelope's flags field). Unknown bits are
// a decode error, mirroring the frame-header rule.
const (
	// EnvFlagTrace marks an envelope followed by a trace field (u32
	// byte length + that many trace-ID bytes) before the frame.
	EnvFlagTrace uint32 = 1 << 0

	// envKnownFlags masks the envelope flag bits this Version defines.
	envKnownFlags = EnvFlagTrace
)

// Handshake capability bits, exchanged in both directions; the
// connection's effective capabilities are the intersection.
const (
	// CapTrace: the peer accepts EnvFlagTrace envelopes.
	CapTrace uint32 = 1 << 0
)

// Stream decode errors — sentinels, like the frame-level ones.
var (
	// ErrEnvFlags: the envelope flags field has undefined bits set.
	ErrEnvFlags = errors.New("wireproto: unknown stream envelope flag bits")
	// ErrEnvLength: the envelope's frame length is shorter than a frame
	// header or longer than the receiver's configured maximum.
	ErrEnvLength = errors.New("wireproto: stream envelope frame length out of range")
	// ErrTraceLen: the trace field's length prefix exceeds MaxTraceBytes.
	ErrTraceLen = errors.New("wireproto: stream trace field too long")
)

// PutEnvelope writes the 12-byte stream envelope into buf: the stream
// ID the frame belongs to, the envelope flags, and the byte length of
// the frame that follows (after the optional trace field).
//
//reach:hotpath
func PutEnvelope(buf []byte, stream, flags, frameLen uint32) {
	binary.LittleEndian.PutUint32(buf[0:4], stream)
	binary.LittleEndian.PutUint32(buf[4:8], flags)
	binary.LittleEndian.PutUint32(buf[8:12], frameLen)
}

// ParseEnvelope validates a 12-byte stream envelope: undefined flag
// bits are ErrEnvFlags, a frame length below HeaderSize or above
// maxFrame is ErrEnvLength. maxFrame is the receiver's own bound
// (derived from its batch-size limit), checked here so a hostile
// length never sizes a read.
//
//reach:hotpath
func ParseEnvelope(buf []byte, maxFrame int) (stream, flags, frameLen uint32, err error) {
	if len(buf) < EnvelopeSize {
		return 0, 0, 0, ErrTruncated
	}
	stream = binary.LittleEndian.Uint32(buf[0:4])
	flags = binary.LittleEndian.Uint32(buf[4:8])
	frameLen = binary.LittleEndian.Uint32(buf[8:12])
	if flags&^uint32(envKnownFlags) != 0 {
		return 0, 0, 0, ErrEnvFlags
	}
	if frameLen < HeaderSize || int64(frameLen) > int64(maxFrame) {
		return 0, 0, 0, ErrEnvLength
	}
	return stream, flags, frameLen, nil
}

// TraceSize returns the byte length of the optional trace field for a
// trace ID of traceLen bytes.
func TraceSize(traceLen int) int { return traceLenBytes + traceLen }

// PutTrace writes the optional trace field (length prefix + ID bytes)
// into buf and returns its byte length. The caller guarantees
// len(trace) <= MaxTraceBytes.
//
//reach:hotpath
func PutTrace(buf []byte, trace string) int {
	binary.LittleEndian.PutUint32(buf[0:traceLenBytes], uint32(len(trace)))
	copy(buf[traceLenBytes:], trace)
	return traceLenBytes + len(trace)
}

// ParseTraceLen validates the 4-byte trace length prefix and returns
// the number of trace-ID bytes that follow.
//
//reach:hotpath
func ParseTraceLen(buf []byte) (int, error) {
	if len(buf) < traceLenBytes {
		return 0, ErrTruncated
	}
	n := binary.LittleEndian.Uint32(buf[0:traceLenBytes])
	if n > MaxTraceBytes {
		return 0, ErrTraceLen
	}
	return int(n), nil
}

// HandshakeSize returns the byte length of a handshake frame whose
// fingerprint is fpLen bytes.
func HandshakeSize(fpLen int) int { return HeaderSize + handshakeCapBytes + fpLen }

// EncodeHandshake writes a handshake frame into buf and returns the
// frame length: caps is the sender's capability mask, fingerprint the
// snapshot fingerprint it serves (or expects; empty skips the check).
// buf must be at least HandshakeSize(len(fingerprint)) bytes and
// len(fingerprint) must not exceed MaxFingerprint. Handshakes happen
// once per connection, off the hot path.
func EncodeHandshake(buf []byte, caps uint32, fingerprint string) int {
	putHeader(buf, FlagHandshake, uint32(len(fingerprint)))
	binary.LittleEndian.PutUint32(buf[HeaderSize:], caps)
	copy(buf[HeaderSize+handshakeCapBytes:], fingerprint)
	return HandshakeSize(len(fingerprint))
}

// DecodeHandshake validates frame as a handshake and returns the
// peer's capability mask and fingerprint. A count past MaxFingerprint
// is ErrMsgLen, rejected before any length arithmetic trusts it.
func DecodeHandshake(frame []byte) (caps uint32, fingerprint string, err error) {
	h, err := ParseHeader(frame)
	if err != nil {
		return 0, "", err
	}
	if h.Flags != FlagHandshake {
		return 0, "", ErrFrameKind
	}
	if h.Count > MaxFingerprint {
		return 0, "", ErrMsgLen
	}
	if len(frame) != HandshakeSize(int(h.Count)) {
		if len(frame) < HandshakeSize(int(h.Count)) {
			return 0, "", ErrTruncated
		}
		return 0, "", ErrLength
	}
	caps = binary.LittleEndian.Uint32(frame[HeaderSize:])
	fingerprint = string(frame[HeaderSize+handshakeCapBytes:])
	return caps, fingerprint, nil
}
