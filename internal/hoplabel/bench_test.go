package hoplabel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// disjointLabels returns count pairs of ascending slices of the given
// lengths that share no element, drawn from one universe so their values
// interleave: a miss scans both strategies to the end, the costliest case.
func disjointLabels(short, long, count int, seed int64) [][2][]uint32 {
	rng := rand.New(rand.NewSource(seed))
	universe := 4 * (short + long)
	out := make([][2][]uint32, count)
	for i := range out {
		perm := rng.Perm(universe)
		a := make([]uint32, short)
		b := make([]uint32, long)
		for k := range a {
			a[k] = uint32(perm[k])
		}
		for k := range b {
			b[k] = uint32(perm[short+k])
		}
		slices.Sort(a)
		slices.Sort(b)
		out[i] = [2][]uint32{a, b}
	}
	return out
}

// BenchmarkIntersectsSorted times both strategies on disjoint labels of
// growing length ratios; gallopRatio is read off it. Run it as
//
//	go test -run '^$' -bench IntersectsSorted ./internal/hoplabel/
func BenchmarkIntersectsSorted(b *testing.B) {
	for _, short := range []int{1, 4, 16, 64} {
		for _, ratio := range []int{2, 4, 8, 16, 32} {
			pairs := disjointLabels(short, short*ratio, 256, int64(short*ratio))
			for _, s := range []struct {
				name string
				f    func(a, b []uint32) bool
			}{{"merge", merge}, {"gallop", gallop}} {
				b.Run(fmt.Sprintf("short=%d/ratio=%d/%s", short, ratio, s.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						p := pairs[i&(len(pairs)-1)]
						if s.f(p[0], p[1]) {
							b.Fatal("disjoint labels intersect")
						}
					}
				})
			}
		}
	}
}
