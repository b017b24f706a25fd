package blockio

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func writeAll(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uint64(42)
	w.String("hello")
	w.Uint32s([]uint32{1, 2, 3, 4, 5})
	w.Int32s([]int32{-1, 0, 7})
	w.Uint64s([]uint64{1 << 40, 2})
	w.Int64s([]int64{-9, 9})
	w.Uint32s(nil)
	w.Uint64(7)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkAll(t *testing.T, r *Reader) {
	t.Helper()
	if v, err := r.Uint64(); err != nil || v != 42 {
		t.Fatalf("Uint64 = %d, %v", v, err)
	}
	if s, err := r.String(); err != nil || s != "hello" {
		t.Fatalf("String = %q, %v", s, err)
	}
	if a, err := r.Uint32s(); err != nil || !slices.Equal(a, []uint32{1, 2, 3, 4, 5}) {
		t.Fatalf("Uint32s = %v, %v", a, err)
	}
	if a, err := r.Int32s(); err != nil || !slices.Equal(a, []int32{-1, 0, 7}) {
		t.Fatalf("Int32s = %v, %v", a, err)
	}
	if a, err := r.Uint64s(); err != nil || !slices.Equal(a, []uint64{1 << 40, 2}) {
		t.Fatalf("Uint64s = %v, %v", a, err)
	}
	if a, err := r.Int64s(); err != nil || !slices.Equal(a, []int64{-9, 9}) {
		t.Fatalf("Int64s = %v, %v", a, err)
	}
	if a, err := r.Uint32s(); err != nil || len(a) != 0 {
		t.Fatalf("empty Uint32s = %v, %v", a, err)
	}
	if v, err := r.Uint64(); err != nil || v != 7 {
		t.Fatalf("trailing Uint64 = %d, %v", v, err)
	}
}

func TestRoundTripSlice(t *testing.T) {
	checkAll(t, NewSliceReader(writeAll(t)))
}

func TestRoundTripMmap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blocks.bin")
	if err := os.WriteFile(path, writeAll(t), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	checkAll(t, f.Reader)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil { // double close is safe
		t.Fatal(err)
	}
}

// TestZeroCopyAliasing proves the mmap promise: a slice-backed read of a
// uint32 block returns a view into the backing buffer, not a copy.
func TestZeroCopyAliasing(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uint32s([]uint32{10, 20, 30})
	data := buf.Bytes()
	r := NewSliceReader(data)
	if !r.ZeroCopy() {
		t.Skip("host is not little-endian; zero-copy disabled by design")
	}
	a, err := r.Uint32s()
	if err != nil {
		t.Fatal(err)
	}
	data[8] = 99 // first payload byte (after the 8-byte length prefix)
	if a[0] != 99 {
		t.Fatalf("expected aliased view, got copy (a[0]=%d)", a[0])
	}
}

// TestTruncationEverywhere chops the valid buffer at every byte offset
// and requires an error (never a panic).
func TestTruncationEverywhere(t *testing.T) {
	full := writeAll(t)
	for cut := 0; cut < len(full); cut++ {
		r := NewSliceReader(full[:cut])
		sawErr := false
		steps := []func() error{
			func() error { _, err := r.Uint64(); return err },
			func() error { _, err := r.String(); return err },
			func() error { _, err := r.Uint32s(); return err },
			func() error { _, err := r.Int32s(); return err },
			func() error { _, err := r.Uint64s(); return err },
			func() error { _, err := r.Int64s(); return err },
			func() error { _, err := r.Uint32s(); return err },
			func() error { _, err := r.Uint64(); return err },
		}
		for _, step := range steps {
			if err := step(); err != nil {
				sawErr = true
				break
			}
		}
		if !sawErr {
			t.Fatalf("cut=%d decoded fully without error", cut)
		}
	}
}

func TestImplausibleLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uint64(1 << 60) // absurd block length prefix
	r := NewSliceReader(buf.Bytes())
	if _, err := r.Uint32s(); err == nil {
		t.Fatal("accepted absurd block length")
	}
}
