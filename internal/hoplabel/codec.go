package hoplabel

import (
	"fmt"

	"repro/internal/blockio"
)

// FromParts assembles a Labeling directly from its four CSR arrays,
// validating the offset structure so every later Out/In slice operation is
// in bounds. The arrays are aliased, not copied — this is the zero-copy
// entry point used when decoding an mmap'd snapshot. Label values and
// order are NOT checked: both intersection strategies compare hops and
// index labels by position only, so a corrupt label gives wrong answers,
// never a panic, and skipping the scan keeps load time proportional to
// the offset arrays, not the labels.
func FromParts(outOff, out, inOff, in []uint32) (*Labeling, error) {
	if len(outOff) == 0 || len(inOff) != len(outOff) {
		return nil, fmt.Errorf("hoplabel: offset arrays have lengths %d and %d", len(outOff), len(inOff))
	}
	n := len(outOff) - 1
	if outOff[0] != 0 || inOff[0] != 0 {
		return nil, fmt.Errorf("hoplabel: offsets must start at 0")
	}
	for v := 0; v < n; v++ {
		if outOff[v] > outOff[v+1] || inOff[v] > inOff[v+1] {
			return nil, fmt.Errorf("hoplabel: offsets not monotone at %d", v)
		}
	}
	if int(outOff[n]) != len(out) || int(inOff[n]) != len(in) {
		return nil, fmt.Errorf("hoplabel: offsets do not cover label arrays (%d/%d out, %d/%d in)",
			outOff[n], len(out), inOff[n], len(in))
	}
	return &Labeling{n: n, outOff: outOff, out: out, inOff: inOff, in: in}, nil
}

// Encode writes the labeling's four CSR arrays as snapshot blocks.
func (l *Labeling) Encode(w *blockio.Writer) {
	w.Uint32s(l.outOff)
	w.Uint32s(l.out)
	w.Uint32s(l.inOff)
	w.Uint32s(l.in)
}

// Decode restores a labeling written by Encode. From a slice-backed
// (mmap'd) reader the label arrays alias the mapping.
func Decode(r *blockio.Reader) (*Labeling, error) {
	outOff, err := r.Uint32s()
	if err != nil {
		return nil, err
	}
	out, err := r.Uint32s()
	if err != nil {
		return nil, err
	}
	inOff, err := r.Uint32s()
	if err != nil {
		return nil, err
	}
	in, err := r.Uint32s()
	if err != nil {
		return nil, err
	}
	return FromParts(outOff, out, inOff, in)
}
