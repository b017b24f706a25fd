package hoplabel

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestIntersectsSorted(t *testing.T) {
	cases := []struct {
		a, b []uint32
		want bool
	}{
		{nil, nil, false},
		{[]uint32{1}, nil, false},
		{[]uint32{1, 3, 5}, []uint32{2, 4, 6}, false},
		{[]uint32{1, 3, 5}, []uint32{5}, true},
		{[]uint32{7}, []uint32{1, 2, 7, 9}, true},
		{[]uint32{1, 2, 3}, []uint32{3, 4, 5}, true},
		{[]uint32{10, 20}, []uint32{1, 2, 3, 4, 5}, false},
	}
	for _, c := range cases {
		if got := IntersectsSorted(c.a, c.b); got != c.want {
			t.Errorf("IntersectsSorted(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestBuilderFreezeSortsAndDedups(t *testing.T) {
	b := NewBuilder(2)
	b.AddOut(0, 5)
	b.AddOut(0, 1)
	b.AddOut(0, 5)
	b.AddIn(1, 9)
	b.AddIn(1, 9)
	l := b.Freeze()
	if got := l.Out(0); !reflect.DeepEqual(got, []uint32{1, 5}) {
		t.Errorf("Out(0) = %v", got)
	}
	if got := l.In(1); !reflect.DeepEqual(got, []uint32{9}) {
		t.Errorf("In(1) = %v", got)
	}
	if got := l.Out(1); len(got) != 0 {
		t.Errorf("Out(1) = %v, want empty", got)
	}
	if l.SizeInts() != 3 {
		t.Errorf("SizeInts = %d, want 3", l.SizeInts())
	}
}

func TestReachableSelf(t *testing.T) {
	l := NewBuilder(3).Freeze()
	if !l.Reachable(1, 1) {
		t.Error("self reachability must hold even with empty labels")
	}
	if l.Reachable(0, 1) {
		t.Error("empty labels imply unreachable")
	}
}

func TestReachableViaCommonHop(t *testing.T) {
	b := NewBuilder(3)
	// 0 -> 2 via hop 7... hops are arbitrary vertex IDs; use 2 itself.
	b.AddOut(0, 2)
	b.AddIn(2, 2)
	l := b.Freeze()
	if !l.Reachable(0, 2) {
		t.Error("Reachable(0,2) = false")
	}
	if l.Reachable(2, 0) {
		t.Error("Reachable(2,0) = true")
	}
}

func TestComputeStats(t *testing.T) {
	b := NewBuilder(2)
	b.AddOut(0, 1)
	b.AddOut(0, 2)
	b.AddIn(1, 3)
	l := b.Freeze()
	s := l.ComputeStats()
	if s.TotalOut != 2 || s.TotalIn != 1 || s.MaxOut != 2 || s.MaxIn != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.AvgOut != 1.0 || s.AvgIn != 0.5 {
		t.Errorf("avg = %+v", s)
	}
}

func TestSetOutSetIn(t *testing.T) {
	b := NewBuilder(1)
	b.SetOut(0, []uint32{4, 2, 2})
	b.SetIn(0, []uint32{8})
	l := b.Freeze()
	if got := l.Out(0); !reflect.DeepEqual(got, []uint32{2, 4}) {
		t.Errorf("Out = %v", got)
	}
	if got := l.In(0); !reflect.DeepEqual(got, []uint32{8}) {
		t.Errorf("In = %v", got)
	}
}

// Property: IntersectsSorted agrees with a map-based intersection test,
// in both argument orders, on labels of similar length (merged) and on
// lopsided ones (galloped).
func TestIntersectsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// mk draws lo to hi values below universe into a sorted set.
		mk := func(lo, hi, universe int) []uint32 {
			m := map[uint32]bool{}
			for i, k := 0, lo+rng.Intn(hi-lo+1); i < k; i++ {
				m[uint32(rng.Intn(universe))] = true
			}
			out := make([]uint32, 0, len(m))
			for x := range m {
				out = append(out, x)
			}
			slices.Sort(out)
			return out
		}
		for _, p := range [][2][]uint32{
			{mk(0, 30, 60), mk(0, 30, 60)},
			{mk(0, 4, 1000), mk(50, 500, 1000)},
		} {
			a, b := p[0], p[1]
			bm := map[uint32]bool{}
			for _, x := range b {
				bm[x] = true
			}
			want := false
			for _, x := range a {
				want = want || bm[x]
			}
			if IntersectsSorted(a, b) != want || IntersectsSorted(b, a) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestIntersectsSortedZeroAlloc pins the //reach:hotpath contract
// reachlint enforces statically: the label intersection runs per query
// pair and must not allocate, whichever strategy it takes.
func TestIntersectsSortedZeroAlloc(t *testing.T) {
	a := []uint32{1, 5, 9, 40, 77, 120}
	b := []uint32{2, 6, 10, 41, 78, 121}
	c := []uint32{3, 9, 200}
	long := make([]uint32, 100)
	for i := range long {
		long[i] = uint32(3 * i)
	}
	short := []uint32{7, 151}
	allocs := testing.AllocsPerRun(1000, func() {
		IntersectsSorted(a, b)
		IntersectsSorted(a, c)
		IntersectsSorted(nil, a)
		IntersectsSorted(short, long)
		IntersectsSorted(long, short)
	})
	if allocs != 0 {
		t.Fatalf("IntersectsSorted allocated %v times per run; the hot path must be allocation-free", allocs)
	}
}

// FuzzIntersectsSorted holds IntersectsSorted to a naive scan on sorted,
// deduplicated labels built from the input, one value per byte, so the
// fuzzer picks the lengths and with them the strategy. The raw bytes are
// also fed unsorted, as a corrupt snapshot would (FromParts does not
// check label order): the answer is then meaningless but must not panic.
func FuzzIntersectsSorted(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{3, 4, 5})
	f.Add([]byte{200}, []byte("abcdefghijklmnopqrstuvwxyz"))
	f.Add([]byte{9, 250}, []byte("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"))
	f.Add([]byte{}, []byte{1})
	f.Fuzz(func(t *testing.T, x, y []byte) {
		toLabel := func(bs []byte) []uint32 {
			out := make([]uint32, len(bs))
			for i, c := range bs {
				out[i] = uint32(c)
			}
			return out
		}
		a, b := toLabel(x), toLabel(y)
		IntersectsSorted(a, b)
		IntersectsSorted(b, a)

		a, b = sortDedup(a), sortDedup(b)
		want := false
		for _, p := range a {
			want = want || slices.Contains(b, p)
		}
		if got := IntersectsSorted(a, b); got != want {
			t.Fatalf("IntersectsSorted(%v, %v) = %v, want %v", a, b, got, want)
		}
		if got := IntersectsSorted(b, a); got != want {
			t.Fatalf("IntersectsSorted(%v, %v) = %v, want %v", b, a, got, want)
		}
	})
}
