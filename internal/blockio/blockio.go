// Package blockio is the low-level serialization substrate of the
// snapshot format: length-prefixed, 8-byte-aligned, little-endian blocks
// of flat integer data. The layout is designed so a snapshot file can be
// mmap'd and its []uint32 / []uint64 sections handed out as zero-copy
// views of the mapping — loading a multi-gigabyte hop labeling then costs
// one mmap call plus O(#blocks) header reads, not a pass over the data.
//
// A Reader decodes from one byte slice (an mmap'd file or any in-memory
// buffer) and aliases block payloads when the host is little-endian and
// the payload is suitably aligned. Every length is checked against the
// bytes actually present before it is used: truncated or corrupted input
// yields errors, never panics or unbounded allocations.
package blockio

import (
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"
)

// hostLittleEndian reports whether the running machine stores integers
// little-endian; zero-copy views are only safe then (the file format is
// little-endian regardless).
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// maxBlockElems bounds any single block's element count, so a corrupted
// length prefix cannot overflow the byte-length arithmetic (count times
// element width) before that length is checked against the buffer.
const maxBlockElems = 1 << 34

// Writer emits aligned little-endian blocks to an io.Writer, tracking the
// first error so call sites can write a whole section unconditionally and
// check once.
type Writer struct {
	w       io.Writer
	off     int64
	err     error
	scratch [64 * 1024]byte
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first write error, or nil.
func (w *Writer) Err() error { return w.err }

func (w *Writer) writeRaw(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(p)
	w.off += int64(n)
	w.err = err
}

var padding [8]byte

// pad aligns the stream to an 8-byte boundary.
func (w *Writer) pad() {
	if rem := int(w.off & 7); rem != 0 {
		w.writeRaw(padding[:8-rem])
	}
}

// Uint64 writes one raw 8-byte value.
func (w *Writer) Uint64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	w.writeRaw(buf[:])
}

// Bytes writes a length-prefixed byte block, padded to alignment.
func (w *Writer) Bytes(p []byte) {
	w.Uint64(uint64(len(p)))
	w.writeRaw(p)
	w.pad()
}

// String writes a length-prefixed string block.
func (w *Writer) String(s string) { w.Bytes([]byte(s)) }

// Uint32s writes a length-prefixed []uint32 block.
func (w *Writer) Uint32s(a []uint32) {
	w.Uint64(uint64(len(a)))
	for len(a) > 0 && w.err == nil {
		chunk := len(w.scratch) / 4
		if chunk > len(a) {
			chunk = len(a)
		}
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint32(w.scratch[i*4:], a[i])
		}
		w.writeRaw(w.scratch[:chunk*4])
		a = a[chunk:]
	}
	w.pad()
}

// Int32s writes a length-prefixed []int32 block.
func (w *Writer) Int32s(a []int32) {
	w.Uint64(uint64(len(a)))
	for len(a) > 0 && w.err == nil {
		chunk := len(w.scratch) / 4
		if chunk > len(a) {
			chunk = len(a)
		}
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint32(w.scratch[i*4:], uint32(a[i]))
		}
		w.writeRaw(w.scratch[:chunk*4])
		a = a[chunk:]
	}
	w.pad()
}

// Uint64s writes a length-prefixed []uint64 block.
func (w *Writer) Uint64s(a []uint64) {
	w.Uint64(uint64(len(a)))
	for len(a) > 0 && w.err == nil {
		chunk := len(w.scratch) / 8
		if chunk > len(a) {
			chunk = len(a)
		}
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint64(w.scratch[i*8:], a[i])
		}
		w.writeRaw(w.scratch[:chunk*8])
		a = a[chunk:]
	}
}

// Int64s writes a length-prefixed []int64 block.
func (w *Writer) Int64s(a []int64) {
	w.Uint64(uint64(len(a)))
	for len(a) > 0 && w.err == nil {
		chunk := len(w.scratch) / 8
		if chunk > len(a) {
			chunk = len(a)
		}
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint64(w.scratch[i*8:], uint64(a[i]))
		}
		w.writeRaw(w.scratch[:chunk*8])
		a = a[chunk:]
	}
}

// Reader decodes blocks written by Writer from an in-memory (or mmap'd)
// buffer, returning zero-copy views of it where safe.
type Reader struct {
	data []byte
	off  int
}

// NewSliceReader returns a Reader over an in-memory (or mmap'd) buffer.
// Blocks handed out may alias data; the buffer must outlive all views.
func NewSliceReader(data []byte) *Reader { return &Reader{data: data} }

// ZeroCopy reports whether this reader can alias its backing buffer.
func (r *Reader) ZeroCopy() bool { return hostLittleEndian }

// Remaining returns the unread byte count.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// take consumes n raw bytes and returns them, aliased.
func (r *Reader) take(n int) ([]byte, error) {
	if n > len(r.data)-r.off {
		return nil, fmt.Errorf("blockio: truncated input: need %d bytes at offset %d of %d", n, r.off, len(r.data))
	}
	p := r.data[r.off : r.off+n]
	r.off += n
	return p, nil
}

// skipPad consumes alignment padding after a block body.
func (r *Reader) skipPad() error {
	if rem := r.off & 7; rem != 0 {
		_, err := r.take(8 - rem)
		return err
	}
	return nil
}

// Uint64 reads one raw 8-byte value.
func (r *Reader) Uint64() (uint64, error) {
	p, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(p), nil
}

// blockLen reads a block's element count and checks it, times the
// element width, against the bytes actually present.
func (r *Reader) blockLen(elemSize int) (int, error) {
	n, err := r.Uint64()
	if err != nil {
		return 0, err
	}
	if n > maxBlockElems {
		return 0, fmt.Errorf("blockio: implausible block length %d", n)
	}
	byteLen := n * uint64(elemSize)
	if byteLen > uint64(len(r.data)-r.off) {
		return 0, fmt.Errorf("blockio: truncated input: block of %d bytes at offset %d of %d", byteLen, r.off, len(r.data))
	}
	return int(n), nil
}

// Bytes reads a byte block, aliasing the backing array.
func (r *Reader) Bytes() ([]byte, error) {
	n, err := r.blockLen(1)
	if err != nil {
		return nil, err
	}
	p, err := r.take(n)
	if err != nil {
		return nil, err
	}
	return p, r.skipPad()
}

// String reads a string block (always copied — strings are immutable).
func (r *Reader) String() (string, error) {
	p, err := r.Bytes()
	if err != nil {
		return "", err
	}
	return string(p), nil
}

// aligned4 reports whether p's base is 4-byte aligned.
func aligned4(p []byte) bool { return uintptr(unsafe.Pointer(&p[0]))&3 == 0 }

// aligned8 reports whether p's base is 8-byte aligned.
func aligned8(p []byte) bool { return uintptr(unsafe.Pointer(&p[0]))&7 == 0 }

// Uint32s reads a []uint32 block. On a little-endian host it returns a
// zero-copy view of the backing buffer.
func (r *Reader) Uint32s() ([]uint32, error) {
	n, err := r.blockLen(4)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, r.skipPad()
	}
	p, err := r.take(n * 4)
	if err != nil {
		return nil, err
	}
	if err := r.skipPad(); err != nil {
		return nil, err
	}
	if r.ZeroCopy() && aligned4(p) {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&p[0])), n), nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(p[i*4:])
	}
	return out, nil
}

// Int32s reads an []int32 block (zero-copy under the same conditions as
// Uint32s).
func (r *Reader) Int32s() ([]int32, error) {
	u, err := r.Uint32s()
	if err != nil {
		return nil, err
	}
	if len(u) == 0 {
		return nil, nil
	}
	// []uint32 and []int32 share representation; reinterpret rather than copy.
	return unsafe.Slice((*int32)(unsafe.Pointer(&u[0])), len(u)), nil
}

// Uint64s reads a []uint64 block. On a little-endian host it returns a
// zero-copy view when the payload is 8-byte aligned.
func (r *Reader) Uint64s() ([]uint64, error) {
	n, err := r.blockLen(8)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	p, err := r.take(n * 8)
	if err != nil {
		return nil, err
	}
	if r.ZeroCopy() && aligned8(p) {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&p[0])), n), nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(p[i*8:])
	}
	return out, nil
}

// Int64s reads an []int64 block.
func (r *Reader) Int64s() ([]int64, error) {
	u, err := r.Uint64s()
	if err != nil {
		return nil, err
	}
	if len(u) == 0 {
		return nil, nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&u[0])), len(u)), nil
}
