package wireproto

import (
	"bytes"
	"strings"
	"testing"
)

// decodeAny runs every decoder over frame the way a receiver would,
// returning whether any of them accepted it. Used by the fuzzer and the
// deterministic corruption sweep: the only requirement on hostile input
// is "error out, never panic, and stay self-consistent".
func decodeAny(t testing.TB, frame []byte) {
	t.Helper()
	if n, err := RequestCount(frame); err == nil {
		pairs := make([][2]uint32, n)
		if err := DecodeRequest(frame, pairs); err != nil {
			t.Fatalf("RequestCount accepted a frame DecodeRequest rejects: %v", err)
		}
		re := make([]byte, RequestSize(n))
		if IsSingle(frame) {
			EncodeSingle(re, pairs[0][0], pairs[0][1])
		} else {
			EncodeRequest(re, pairs)
		}
		if !bytes.Equal(re, frame) {
			t.Fatalf("request round trip not byte-identical:\n got %x\nwant %x", re, frame)
		}
	}
	if n, err := ResponseCount(frame); err == nil {
		results := make([]bool, n)
		if err := DecodeResponse(frame, results); err != nil {
			t.Fatalf("ResponseCount accepted a frame DecodeResponse rejects: %v", err)
		}
		re := make([]byte, ResponseSize(n))
		if IsCached(frame) {
			EncodeSingleResponse(re, results[0], true)
		} else {
			EncodeResponse(re, results)
		}
		if !bytes.Equal(re, frame) {
			t.Fatalf("response round trip not byte-identical:\n got %x\nwant %x", re, frame)
		}
	}
	if status, msg, err := DecodeError(frame); err == nil {
		re := make([]byte, ErrorSize(len(msg)))
		if EncodeError(re, status, msg); !bytes.Equal(re, frame) {
			t.Fatalf("error round trip not byte-identical:\n got %x\nwant %x", re, frame)
		}
	}
	if caps, fp, err := DecodeHandshake(frame); err == nil {
		re := make([]byte, HandshakeSize(len(fp)))
		if EncodeHandshake(re, caps, fp); !bytes.Equal(re, frame) {
			t.Fatalf("handshake round trip not byte-identical:\n got %x\nwant %x", re, frame)
		}
	}
	IsError(frame)
	ParseHeader(frame)
}

// seedFrames builds one valid frame of each kind, the same set the
// checked-in fuzz corpus and the corruption sweep mutate.
func seedFrames() [][]byte {
	req := make([]byte, RequestSize(3))
	EncodeRequest(req, [][2]uint32{{0, 3}, {7, 2}, {1 << 20, 5}})
	resp := make([]byte, ResponseSize(67)) // crosses a word boundary
	results := make([]bool, 67)
	for i := range results {
		results[i] = i%3 == 0
	}
	EncodeResponse(resp, results)
	errf := make([]byte, ErrorSize(len("replica overloaded")))
	EncodeError(errf, 429, "replica overloaded")
	hs := make([]byte, HandshakeSize(16))
	EncodeHandshake(hs, CapTrace, "8f14e45fceea167a")
	single := make([]byte, RequestSize(1))
	EncodeSingle(single, 7, 1<<20)
	cached := make([]byte, ResponseSize(1))
	EncodeSingleResponse(cached, true, true)
	return [][]byte{req, resp, errf, hs, single, cached}
}

// TestWireCorruptionReturnsErrors mirrors the snapshot corruption
// tests: every truncation of every valid frame kind must decode to an
// error, and every single-bit flip must either decode to an error or
// yield values that re-encode to exactly the mutated bytes (flips in
// pair/result payload change data, not framing — that is the
// application's checksum problem, not the codec's).
func TestWireCorruptionReturnsErrors(t *testing.T) {
	for _, frame := range seedFrames() {
		for cut := 0; cut < len(frame); cut++ {
			trunc := frame[:cut]
			// No truncation of these seeds can be a valid shorter frame:
			// the header still declares the full count, so the length
			// check fails before any payload is trusted.
			if _, err := RequestCount(trunc); err == nil {
				t.Fatalf("truncation to %d bytes decoded as a request", cut)
			}
			if _, err := ResponseCount(trunc); err == nil {
				t.Fatalf("truncation to %d bytes decoded as a response", cut)
			}
			if _, _, err := DecodeError(trunc); err == nil {
				t.Fatalf("truncation to %d bytes decoded as an error frame", cut)
			}
			if _, _, err := DecodeHandshake(trunc); err == nil {
				t.Fatalf("truncation to %d bytes decoded as a handshake", cut)
			}
			decodeAny(t, trunc)
		}
		for off := 0; off < len(frame); off++ {
			for _, bit := range []byte{0x01, 0x80} {
				mut := bytes.Clone(frame)
				mut[off] ^= bit
				decodeAny(t, mut)
			}
		}
	}
}

// TestOversizedTextFieldRejected pins the text-field caps: a frame
// whose count claims more message/fingerprint bytes than the cap must
// be rejected with ErrMsgLen before the count sizes anything — even
// when the frame really is that long, and even when it is only a bare
// header (the cap fires before the length arithmetic, so a hostile
// 12-byte header cannot make a receiver expect a giant payload).
func TestOversizedTextFieldRejected(t *testing.T) {
	long := strings.Repeat("x", MaxErrorMsg+1)
	big := make([]byte, ErrorSize(len(long)))
	EncodeError(big, 500, long)
	if _, _, err := DecodeError(big); err != ErrMsgLen {
		t.Fatalf("DecodeError(oversized msg) = %v, want ErrMsgLen", err)
	}
	hdr := make([]byte, HeaderSize)
	putHeader(hdr, FlagError, MaxErrorMsg+1)
	if _, _, err := DecodeError(hdr); err != ErrMsgLen {
		t.Fatalf("DecodeError(bare oversized header) = %v, want ErrMsgLen", err)
	}
	atCap := strings.Repeat("x", MaxErrorMsg)
	ok := make([]byte, ErrorSize(len(atCap)))
	EncodeError(ok, 500, atCap)
	if _, msg, err := DecodeError(ok); err != nil || msg != atCap {
		t.Fatalf("DecodeError(msg at cap) = %d bytes, %v; want the full message", len(msg), err)
	}

	longFP := strings.Repeat("f", MaxFingerprint+1)
	hs := make([]byte, HandshakeSize(len(longFP)))
	EncodeHandshake(hs, 0, longFP)
	if _, _, err := DecodeHandshake(hs); err != ErrMsgLen {
		t.Fatalf("DecodeHandshake(oversized fingerprint) = %v, want ErrMsgLen", err)
	}
}

// FuzzWireDecode throws arbitrary bytes at every decoder. The invariant
// is decodeAny's: no panic on any input, and any accepted frame must
// re-encode byte-identically (so the decoders can never "repair"
// hostile input into something the encoders would not produce).
func FuzzWireDecode(f *testing.F) {
	for _, frame := range seedFrames() {
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		f.Add(frame[:len(frame)-1])
		flipped := bytes.Clone(frame)
		flipped[4] ^= 0x02 // mutate the kind: handshake bit on, or off on the handshake seed
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("RWB"))
	// A bare header claiming an enormous error message: the text-field
	// cap must reject the count before anything allocates for it.
	oversized := make([]byte, HeaderSize)
	putHeader(oversized, FlagError, MaxErrorMsg+1)
	f.Add(oversized)
	f.Fuzz(func(t *testing.T, frame []byte) {
		decodeAny(t, frame)
	})
}
