package wireproto

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

const specPath = "../../docs/WIRE.md"

// specFrames extracts the example frames from docs/WIRE.md. A frame
// block is a fenced code block whose info string is "frame:<name>";
// inside it, each line's leading whitespace-separated two-hex-digit
// tokens are frame bytes and everything from the first non-hex token on
// is commentary.
func specFrames(t *testing.T) map[string][]byte {
	t.Helper()
	f, err := os.Open(specPath)
	if err != nil {
		t.Fatalf("reading the wire spec: %v", err)
	}
	defer f.Close()

	frames := make(map[string][]byte)
	var name string // current block, "" outside one
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case name == "" && strings.HasPrefix(line, "```frame:"):
			name = strings.TrimPrefix(line, "```frame:")
			if _, dup := frames[name]; dup {
				t.Fatalf("duplicate example frame %q in %s", name, specPath)
			}
			frames[name] = nil
		case name != "" && strings.HasPrefix(line, "```"):
			name = ""
		case name != "":
			for _, tok := range strings.Fields(line) {
				var b byte
				if len(tok) != 2 {
					break
				}
				if _, err := fmt.Sscanf(tok, "%02x", &b); err != nil {
					break
				}
				frames[name] = append(frames[name], b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if name != "" {
		t.Fatalf("unterminated frame block %q in %s", name, specPath)
	}
	return frames
}

// TestWireSpecInSync round-trips every example frame documented in
// docs/WIRE.md through the real codec: the documented bytes must be
// exactly what the encoder produces for the documented meaning, and
// the decoder must read the documented meaning back out. Editing the
// spec or the codec without the other fails here.
func TestWireSpecInSync(t *testing.T) {
	frames := specFrames(t)

	check := func(name string, want []byte, encode func(buf []byte) int) []byte {
		t.Helper()
		doc, ok := frames[name]
		if !ok {
			t.Fatalf("spec has no ```frame:%s example", name)
		}
		got := make([]byte, len(want))
		if n := encode(got); n != len(want) {
			t.Fatalf("%s: encoder wrote %d bytes, spec documents %d", name, n, len(want))
		}
		if !bytes.Equal(got, doc) {
			t.Fatalf("%s: spec and codec disagree\n spec:  %x\n codec: %x", name, doc, got)
		}
		delete(frames, name)
		return doc
	}

	reqPairs := [][2]uint32{{0, 3}, {7, 2}, {5, 5}}
	doc := check("request", make([]byte, RequestSize(3)), func(buf []byte) int {
		return EncodeRequest(buf, reqPairs)
	})
	n, err := RequestCount(doc)
	if err != nil || n != len(reqPairs) {
		t.Fatalf("request: RequestCount = %d, %v", n, err)
	}
	dec := make([][2]uint32, n)
	if err := DecodeRequest(doc, dec); err != nil {
		t.Fatal(err)
	}
	for i := range reqPairs {
		if dec[i] != reqPairs[i] {
			t.Fatalf("request: pair %d decodes to %v, spec documents %v", i, dec[i], reqPairs[i])
		}
	}

	check("request-empty", make([]byte, RequestSize(0)), func(buf []byte) int {
		return EncodeRequest(buf, nil)
	})

	doc = check("request-single", make([]byte, RequestSize(1)), func(buf []byte) int {
		return EncodeSingle(buf, 7, 2)
	})
	single := make([][2]uint32, 1)
	if n, err := RequestCount(doc); err != nil || n != 1 || !IsSingle(doc) {
		t.Fatalf("request-single: RequestCount = %d, %v; IsSingle = %v", n, err, IsSingle(doc))
	}
	if err := DecodeRequest(doc, single); err != nil || single[0] != [2]uint32{7, 2} {
		t.Fatalf("request-single: decodes to %v (%v), spec documents u=7, v=2", single[0], err)
	}

	respResults := []bool{true, false, true}
	doc = check("response", make([]byte, ResponseSize(3)), func(buf []byte) int {
		return EncodeResponse(buf, respResults)
	})
	if n, err := ResponseCount(doc); err != nil || n != 3 {
		t.Fatalf("response: ResponseCount = %d, %v", n, err)
	}
	got3 := make([]bool, 3)
	if err := DecodeResponse(doc, got3); err != nil {
		t.Fatal(err)
	}
	for i := range respResults {
		if got3[i] != respResults[i] {
			t.Fatalf("response: result %d decodes to %v, spec documents %v", i, got3[i], respResults[i])
		}
	}

	multi := make([]bool, 65)
	multi[0], multi[64] = true, true
	doc = check("response-multiword", make([]byte, ResponseSize(65)), func(buf []byte) int {
		return EncodeResponse(buf, multi)
	})
	got65 := make([]bool, 65)
	if err := DecodeResponse(doc, got65); err != nil {
		t.Fatal(err)
	}
	for i := range multi {
		if got65[i] != multi[i] {
			t.Fatalf("response-multiword: result %d decodes to %v, spec documents %v", i, got65[i], multi[i])
		}
	}

	doc = check("response-cached", make([]byte, ResponseSize(1)), func(buf []byte) int {
		return EncodeSingleResponse(buf, true, true)
	})
	got1 := make([]bool, 1)
	if n, err := ResponseCount(doc); err != nil || n != 1 || !IsCached(doc) {
		t.Fatalf("response-cached: ResponseCount = %d, %v; IsCached = %v", n, err, IsCached(doc))
	}
	if err := DecodeResponse(doc, got1); err != nil || !got1[0] {
		t.Fatalf("response-cached: decodes to %v (%v), spec documents true", got1[0], err)
	}

	const errStatus, errMsg = 429, "replica overloaded"
	doc = check("error", make([]byte, ErrorSize(len(errMsg))), func(buf []byte) int {
		return EncodeError(buf, errStatus, errMsg)
	})
	status, msg, err := DecodeError(doc)
	if err != nil || status != errStatus || msg != errMsg {
		t.Fatalf("error: DecodeError = (%d, %q, %v), spec documents (%d, %q)", status, msg, err, errStatus, errMsg)
	}

	doc = check("stream-envelope", make([]byte, EnvelopeSize), func(buf []byte) int {
		PutEnvelope(buf, 7, 0, 36)
		return EnvelopeSize
	})
	if stream, flags, frameLen, err := ParseEnvelope(doc, 1<<20); err != nil || stream != 7 || flags != 0 || frameLen != 36 {
		t.Fatalf("stream-envelope: ParseEnvelope = (%d, %d, %d, %v), spec documents (7, 0, 36)",
			stream, flags, frameLen, err)
	}

	const envTrace = "ab12"
	doc = check("stream-envelope-trace", make([]byte, EnvelopeSize+TraceSize(len(envTrace))), func(buf []byte) int {
		PutEnvelope(buf, 8, EnvFlagTrace, HeaderSize)
		return EnvelopeSize + PutTrace(buf[EnvelopeSize:], envTrace)
	})
	stream, flags, frameLen, err := ParseEnvelope(doc, 1<<20)
	if err != nil || stream != 8 || flags != EnvFlagTrace || frameLen != HeaderSize {
		t.Fatalf("stream-envelope-trace: ParseEnvelope = (%d, %d, %d, %v), spec documents (8, %d, %d)",
			stream, flags, frameLen, err, EnvFlagTrace, HeaderSize)
	}
	tn, err := ParseTraceLen(doc[EnvelopeSize:])
	if err != nil || tn != len(envTrace) {
		t.Fatalf("stream-envelope-trace: ParseTraceLen = (%d, %v), spec documents %d", tn, err, len(envTrace))
	}
	if got := string(doc[EnvelopeSize+4 : EnvelopeSize+4+tn]); got != envTrace {
		t.Fatalf("stream-envelope-trace: trace ID %q, spec documents %q", got, envTrace)
	}

	const hsFP = "a1b2c3d4e5f60718"
	doc = check("handshake", make([]byte, HandshakeSize(len(hsFP))), func(buf []byte) int {
		return EncodeHandshake(buf, CapTrace, hsFP)
	})
	caps, fp, err := DecodeHandshake(doc)
	if err != nil || caps != CapTrace || fp != hsFP {
		t.Fatalf("handshake: DecodeHandshake = (%d, %q, %v), spec documents (%d, %q)", caps, fp, err, CapTrace, hsFP)
	}

	// Every example in the spec must be exercised above — an example
	// this test does not know about is an example nothing keeps honest.
	for name := range frames {
		t.Errorf("spec documents ```frame:%s but TestWireSpecInSync does not verify it", name)
	}
}
