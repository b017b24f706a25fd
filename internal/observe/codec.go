// Snapshot section codec for the observer stack. The section is a
// sequence of blockio blocks — version, checksum, then the six
// precomputed arrays — so an mmap'd snapshot hands the stack out as
// zero-copy views of the mapping, same as the index payload. The
// checksum makes the section self-validating: flipped bits anywhere in
// the arrays are caught at decode time instead of silently steering
// queries to wrong certificates.
package observe

import (
	"fmt"
	"time"

	"repro/internal/blockio"
	"repro/internal/graph"
)

// sectionVersion is bumped when the section layout changes; decoders
// reject versions they do not understand, and snapshot.decode then fails
// the whole load, as it does for any other damaged section.
const sectionVersion = 1

// EncodeSection writes the stack's precomputed state as one snapshot
// section.
func EncodeSection(st *Stack, w *blockio.Writer) error {
	w.Uint64(sectionVersion)
	w.Uint64(st.checksum())
	w.Uint32s(st.sup)
	w.Int32s(st.pos)
	w.Int32s(st.fmax)
	w.Int32s(st.bmin)
	w.Uint64s(st.fwd)
	w.Uint64s(st.bwd)
	return w.Err()
}

// DecodeSection reads an observer section written by EncodeSection and
// validates it against g — array lengths, supportive-vertex bounds, and
// the content checksum all have to line up, so a truncated or
// bit-flipped section returns an error rather than a stack that lies.
func DecodeSection(g *graph.Graph, r *blockio.Reader) (*Stack, error) {
	start := time.Now()
	version, err := r.Uint64()
	if err != nil {
		return nil, fmt.Errorf("observe: reading section version: %w", err)
	}
	if version != sectionVersion {
		return nil, fmt.Errorf("observe: unsupported section version %d (want %d)", version, sectionVersion)
	}
	sum, err := r.Uint64()
	if err != nil {
		return nil, fmt.Errorf("observe: reading section checksum: %w", err)
	}
	st := &Stack{fromSnapshot: true}
	if st.sup, err = r.Uint32s(); err != nil {
		return nil, fmt.Errorf("observe: reading supportive vertices: %w", err)
	}
	if st.pos, err = r.Int32s(); err != nil {
		return nil, fmt.Errorf("observe: reading topo positions: %w", err)
	}
	if st.fmax, err = r.Int32s(); err != nil {
		return nil, fmt.Errorf("observe: reading forward bounds: %w", err)
	}
	if st.bmin, err = r.Int32s(); err != nil {
		return nil, fmt.Errorf("observe: reading backward bounds: %w", err)
	}
	if st.fwd, err = r.Uint64s(); err != nil {
		return nil, fmt.Errorf("observe: reading forward masks: %w", err)
	}
	if st.bwd, err = r.Uint64s(); err != nil {
		return nil, fmt.Errorf("observe: reading backward masks: %w", err)
	}
	n := g.NumVertices()
	for name, l := range map[string]int{
		"topo positions": len(st.pos), "forward bounds": len(st.fmax),
		"backward bounds": len(st.bmin), "forward masks": len(st.fwd),
		"backward masks": len(st.bwd),
	} {
		if l != n {
			return nil, fmt.Errorf("observe: %s array has %d entries for %d vertices", name, l, n)
		}
	}
	if len(st.sup) > MaxSupportive {
		return nil, fmt.Errorf("observe: %d supportive vertices exceeds the %d-bit mask width", len(st.sup), MaxSupportive)
	}
	for i, w := range st.sup {
		if int(w) >= n {
			return nil, fmt.Errorf("observe: supportive vertex %d is %d, beyond %d vertices", i, w, n)
		}
	}
	if got := st.checksum(); got != sum {
		return nil, fmt.Errorf("observe: section checksum mismatch (stored %#x, computed %#x): snapshot corrupt", sum, got)
	}
	st.buildRec()
	st.precompute = time.Since(start)
	return st, nil
}

// checksum is FNV-1a over every array's length and contents, in the
// section's field order.
func (st *Stack) checksum() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(len(st.sup)))
	for _, v := range st.sup {
		mix(uint64(v))
	}
	for _, a := range [][]int32{st.pos, st.fmax, st.bmin} {
		mix(uint64(len(a)))
		for _, v := range a {
			mix(uint64(uint32(v)))
		}
	}
	for _, a := range [][]uint64{st.fwd, st.bwd} {
		mix(uint64(len(a)))
		for _, v := range a {
			mix(v)
		}
	}
	return h
}
