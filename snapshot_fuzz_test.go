package reach

import (
	"bytes"
	"testing"
)

// corpusSnapshot builds a small snapshot to seed fuzzing and corruption
// sweeps: a cyclic graph (so the condensation section is non-trivial)
// with original IDs and the given method's payload.
func corpusSnapshot(t testing.TB, m Method) []byte {
	return corpusSnapshotOpts(t, m, Options{Seed: 5})
}

// corpusSnapshotOpts is corpusSnapshot with explicit build options, so
// the corpus can carry both observer-bearing and observer-free
// snapshots (Options.NoObservers drops the optional section entirely).
func corpusSnapshotOpts(t testing.TB, m Method, opts Options) []byte {
	t.Helper()
	src := "0 1\n1 2\n2 0\n2 3\n3 4\n5 3\n4 6\n6 5\n"
	g, _, err := ReadGraph(bytes.NewReader([]byte(src)))
	if err != nil {
		t.Fatal(err)
	}
	o, err := Build(g, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := o.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// exerciseLoaded runs enough of the query surface over a successfully
// loaded oracle to catch any decoder that accepted memory-unsafe state.
func exerciseLoaded(o *Oracle) {
	n := uint32(o.Graph().NumVertices())
	lim := n
	if lim > 16 {
		lim = 16
	}
	for u := uint32(0); u < lim; u++ {
		for v := uint32(0); v < lim; v++ {
			o.Reachable(u, v)
		}
	}
	o.Reachable(n+100, 0) // out-of-range stays false, never panics
	_ = o.Method()
	_ = o.IndexSizeInts()
	_ = o.Graph().Fingerprint()
}

// FuzzLoadSnapshot is the satellite guarantee of the snapshot format:
// arbitrary bytes — including truncated and bit-flipped real snapshots
// from the checked-in corpus — either load into a queryable oracle or
// return an error, never a panic. LoadBytes (the decode mmap'd files
// take) and LoadFrom (a stream read into memory first) must reach the
// same verdict on every input.
func FuzzLoadSnapshot(f *testing.F) {
	for _, m := range []Method{MethodDL, MethodGRAIL, MethodKReach, MethodBFS} {
		snap := corpusSnapshot(f, m)
		f.Add(snap)
		f.Add(snap[:len(snap)/2])
		f.Add(snap[:len(snap)-1])
		flipped := bytes.Clone(snap)
		flipped[len(flipped)/3] ^= 0xFF
		f.Add(flipped)
	}
	// Observer-free layout (no observer section, flag bit clear): the
	// loader's rebuild-on-the-fly path, plus mutations of it.
	f.Add(corpusSnapshotOpts(f, MethodDL, Options{Seed: 5, NoObservers: true}))
	f.Add([]byte{})
	f.Add([]byte("RSNAPv2\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		loadAgreeing(t, data)
	})
}

// loadAgreeing loads data through LoadBytes and LoadFrom, fails t unless
// both load or both fail, and queries whatever loaded.
func loadAgreeing(t testing.TB, data []byte) {
	t.Helper()
	mapped, errBytes := LoadBytes(data)
	streamed, errStream := LoadFrom(bytes.NewReader(data))
	if (errBytes == nil) != (errStream == nil) {
		t.Fatalf("loaders disagree on %d bytes: LoadBytes: %v; LoadFrom: %v", len(data), errBytes, errStream)
	}
	if errBytes == nil {
		exerciseLoaded(mapped)
		exerciseLoaded(streamed)
	}
}

// TestSnapshotCorruptionReturnsErrors is the deterministic companion to
// the fuzz target, run on every plain `go test`: every truncation length
// and a sweep of single-byte corruptions of a real snapshot must yield an
// error or a loadable, queryable oracle — no panics — and the same
// verdict from LoadBytes and LoadFrom.
func TestSnapshotCorruptionReturnsErrors(t *testing.T) {
	for _, m := range []Method{MethodDL, MethodGRAIL, MethodKReach, MethodPathTree} {
		snap := corpusSnapshot(t, m)
		tryLoad := func(data []byte) { loadAgreeing(t, data) }
		for cut := 0; cut < len(snap); cut++ {
			tryLoad(snap[:cut])
		}
		if _, err := LoadBytes(snap[:len(snap)-1]); err == nil {
			t.Fatalf("%s: truncated snapshot loaded without error", m)
		}
		mut := make([]byte, len(snap))
		for off := 0; off < len(snap); off++ {
			for _, bit := range []byte{0x01, 0x80} {
				copy(mut, snap)
				mut[off] ^= bit
				tryLoad(mut)
			}
		}
	}
}

// TestSnapshotTrailingBytesRejected pins one verdict per snapshot: a
// snapshot followed by stray bytes fails to load through LoadFrom with
// the same error as through LoadBytes.
func TestSnapshotTrailingBytesRejected(t *testing.T) {
	snap := append(corpusSnapshot(t, MethodDL), make([]byte, 8)...)
	_, errBytes := LoadBytes(snap)
	if errBytes == nil {
		t.Fatal("LoadBytes accepted a snapshot followed by 8 stray bytes")
	}
	_, errStream := LoadFrom(bytes.NewReader(snap))
	if errStream == nil || errStream.Error() != errBytes.Error() {
		t.Fatalf("LoadFrom = %v, want the LoadBytes error %q", errStream, errBytes)
	}
}

// TestSnapshotObserverFallback pins the compatibility contract of the
// optional observer section: a snapshot that carries one restores it
// (FromSnapshot reports the decode), a snapshot without one — the
// pre-observer format, byte-identical to what older builds wrote — still
// loads and gets a freshly built stack, and both oracles answer every
// query identically.
func TestSnapshotObserverFallback(t *testing.T) {
	withSection := corpusSnapshot(t, MethodDL)
	without := corpusSnapshotOpts(t, MethodDL, Options{Seed: 5, NoObservers: true})
	if len(without) >= len(withSection) {
		t.Fatalf("observer-free snapshot (%d bytes) not smaller than observer-bearing one (%d bytes)",
			len(without), len(withSection))
	}

	restored, err := LoadBytes(withSection)
	if err != nil {
		t.Fatal(err)
	}
	st := restored.Observers()
	if st == nil {
		t.Fatal("observer-bearing snapshot loaded without a stack")
	}
	if !st.FromSnapshot() {
		t.Error("stack decoded from a snapshot section reports FromSnapshot() = false")
	}
	if st.SectionBytes() != int64(len(withSection)-len(without)) {
		t.Errorf("SectionBytes() = %d, but the section occupies %d bytes on disk",
			st.SectionBytes(), len(withSection)-len(without))
	}

	rebuilt, err := LoadBytes(without)
	if err != nil {
		t.Fatal(err)
	}
	st = rebuilt.Observers()
	if st == nil {
		t.Fatal("observer-free snapshot did not rebuild the stack on load")
	}
	if st.FromSnapshot() {
		t.Error("stack rebuilt from the DAG reports FromSnapshot() = true")
	}

	n := uint32(restored.Graph().NumVertices())
	for u := uint32(0); u < n; u++ {
		for v := uint32(0); v < n; v++ {
			if a, b := restored.Reachable(u, v), rebuilt.Reachable(u, v); a != b {
				t.Fatalf("reach(%d,%d): restored section says %v, rebuilt stack says %v", u, v, a, b)
			}
		}
	}
}

// TestSnapshotUnknownFlagRejected pins forward compatibility at the
// container level: a flags word carrying a bit this build does not know
// (a section it cannot skip) must refuse the whole snapshot.
func TestSnapshotUnknownFlagRejected(t *testing.T) {
	snap := corpusSnapshot(t, MethodDL)
	if _, err := LoadBytes(snap); err != nil {
		t.Fatalf("pristine snapshot failed to load: %v", err)
	}
	// Header layout for a "DL" tag: magic block (16 bytes), tag block
	// (16), build-options block (40) — the flags word starts at byte 72.
	const flagsOff = 72
	if snap[flagsOff]&0b11 == 0 {
		t.Fatalf("byte %d does not look like the flags word (no known flag set)", flagsOff)
	}
	mut := bytes.Clone(snap)
	mut[flagsOff] |= 1 << 2 // first bit beyond knownFlags
	if _, err := LoadBytes(mut); err == nil {
		t.Fatal("snapshot with an unknown flag bit loaded without error")
	}
}
