// Package hoplabel holds the shared reachability-oracle representation: per
// vertex, two sorted hop sets Lout(v) and Lin(v) such that u reaches v iff
// Lout(u) ∩ Lin(v) ≠ ∅. Every labeling algorithm in this repository (HL,
// DL, TF, 2HOP) produces one of these.
//
// The paper observes (§1) that implementing the label sets as sorted
// vectors rather than hash sets eliminates the reachability oracle's
// historical query-performance gap; labels here are flat sorted []uint32
// CSR arrays and the query is one intersection with early exit: a merge
// when the two labels are of similar length, a galloping search of the
// longer label when one is much shorter.
package hoplabel

import "slices"

// Labeling is an immutable, complete 2-hop reachability labeling.
type Labeling struct {
	n      int
	outOff []uint32
	out    []uint32
	inOff  []uint32
	in     []uint32
}

// NumVertices returns the number of labeled vertices.
func (l *Labeling) NumVertices() int { return l.n }

// Out returns Lout(v), sorted ascending. Shared storage; do not modify.
func (l *Labeling) Out(v uint32) []uint32 { return l.out[l.outOff[v]:l.outOff[v+1]] }

// In returns Lin(v), sorted ascending. Shared storage; do not modify.
func (l *Labeling) In(v uint32) []uint32 { return l.in[l.inOff[v]:l.inOff[v+1]] }

// Reachable answers u -> v by intersecting Lout(u) and Lin(v); see
// IntersectsSorted.
func (l *Labeling) Reachable(u, v uint32) bool {
	if u == v {
		return true
	}
	return IntersectsSorted(l.Out(u), l.In(v))
}

// gallopRatio is the length ratio above which IntersectsSorted gallops:
// on disjoint labels BenchmarkIntersectsSorted has the two strategies
// about even at 8 for shorter labels of 1 to 64 entries, merge ahead
// below it and gallop ahead above it, by 2-4x at 32.
const gallopRatio = 8

// IntersectsSorted reports whether two ascending slices share an element.
// Slices of similar length are merged, O(|a|+|b|). When one is more than
// gallopRatio times longer than the other, each element of the shorter
// is searched for in the longer instead, O(|short|·log(|long|/|short|)).
//
//reach:hotpath
func IntersectsSorted(a, b []uint32) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) > gallopRatio*len(a) {
		return gallop(a, b)
	}
	return merge(a, b)
}

// merge walks both slices in step.
//
//reach:hotpath
func merge(a, b []uint32) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// gallop finds each element of short in long, resuming from the previous
// element's position: bounds grow 1, 2, 4, ... until one passes the
// element, then a binary search between the last two bounds. Indices
// stay in range whatever the input order, so unsorted labels give a wrong
// answer, never a panic.
//
//reach:hotpath
func gallop(short, long []uint32) bool {
	lo := 0
	for _, x := range short {
		hi, step := lo, 1
		for hi < len(long) && long[hi] < x {
			lo = hi + 1
			hi += step
			step <<= 1
		}
		hi = min(hi, len(long))
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if long[m] < x {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if lo == len(long) {
			return false
		}
		if long[lo] == x {
			return true
		}
	}
	return false
}

// SizeInts returns the total label size Σ(|Lout(v)| + |Lin(v)|) in 32-bit
// integers — the metric minimized by 2-hop labeling and reported in the
// paper's Figures 3 and 4.
func (l *Labeling) SizeInts() int64 { return int64(len(l.out) + len(l.in)) }

// Stats summarizes label-size distribution.
type Stats struct {
	TotalOut, TotalIn int64
	MaxOut, MaxIn     int
	AvgOut, AvgIn     float64
}

// ComputeStats gathers label statistics.
func (l *Labeling) ComputeStats() Stats {
	var s Stats
	s.TotalOut = int64(len(l.out))
	s.TotalIn = int64(len(l.in))
	for v := 0; v < l.n; v++ {
		if o := len(l.Out(uint32(v))); o > s.MaxOut {
			s.MaxOut = o
		}
		if i := len(l.In(uint32(v))); i > s.MaxIn {
			s.MaxIn = i
		}
	}
	if l.n > 0 {
		s.AvgOut = float64(s.TotalOut) / float64(l.n)
		s.AvgIn = float64(s.TotalIn) / float64(l.n)
	}
	return s
}

// Builder accumulates per-vertex hop sets and freezes them into a Labeling.
type Builder struct {
	out [][]uint32
	in  [][]uint32
}

// NewBuilder returns a Builder for n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{out: make([][]uint32, n), in: make([][]uint32, n)}
}

// NumVertices returns the builder's vertex count.
func (b *Builder) NumVertices() int { return len(b.out) }

// AddOut appends hop to Lout(v). Duplicates are removed at Freeze.
func (b *Builder) AddOut(v, hop uint32) { b.out[v] = append(b.out[v], hop) }

// AddIn appends hop to Lin(v). Duplicates are removed at Freeze.
func (b *Builder) AddIn(v, hop uint32) { b.in[v] = append(b.in[v], hop) }

// SetOut replaces Lout(v) wholesale (used by HL's label unioning).
func (b *Builder) SetOut(v uint32, hops []uint32) { b.out[v] = hops }

// SetIn replaces Lin(v) wholesale.
func (b *Builder) SetIn(v uint32, hops []uint32) { b.in[v] = hops }

// Out returns the current (unsorted, possibly duplicated) Lout(v).
func (b *Builder) Out(v uint32) []uint32 { return b.out[v] }

// In returns the current (unsorted, possibly duplicated) Lin(v).
func (b *Builder) In(v uint32) []uint32 { return b.in[v] }

// Freeze sorts and deduplicates every label and produces the flat Labeling.
// The builder must not be used afterwards.
func (b *Builder) Freeze() *Labeling {
	n := len(b.out)
	l := &Labeling{n: n, outOff: make([]uint32, n+1), inOff: make([]uint32, n+1)}
	var totalOut, totalIn int
	for v := 0; v < n; v++ {
		b.out[v] = sortDedup(b.out[v])
		b.in[v] = sortDedup(b.in[v])
		totalOut += len(b.out[v])
		totalIn += len(b.in[v])
	}
	l.out = make([]uint32, 0, totalOut)
	l.in = make([]uint32, 0, totalIn)
	for v := 0; v < n; v++ {
		l.out = append(l.out, b.out[v]...)
		l.outOff[v+1] = uint32(len(l.out))
		l.in = append(l.in, b.in[v]...)
		l.inOff[v+1] = uint32(len(l.in))
		b.out[v], b.in[v] = nil, nil // release during freeze to cap peak memory
	}
	return l
}

func sortDedup(s []uint32) []uint32 {
	if len(s) < 2 {
		return s
	}
	slices.Sort(s)
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}
