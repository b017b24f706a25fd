package server

import (
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheGetPut(t *testing.T) {
	c := newCache(1024)
	if _, ok := c.get(1, 2); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.put(1, 2, true)
	c.put(2, 1, false) // asymmetric pair must not collide
	if ans, ok := c.get(1, 2); !ok || !ans {
		t.Fatalf("get(1,2) = %v, %v", ans, ok)
	}
	if ans, ok := c.get(2, 1); !ok || ans {
		t.Fatalf("get(2,1) = %v, %v", ans, ok)
	}
	if n := c.len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
}

func TestCacheOverwrite(t *testing.T) {
	c := newCache(64)
	c.put(3, 4, false)
	c.put(3, 4, true)
	if ans, ok := c.get(3, 4); !ok || !ans {
		t.Fatalf("overwrite lost: %v, %v", ans, ok)
	}
	if n := c.len(); n != 1 {
		t.Fatalf("len = %d after overwrite, want 1", n)
	}
}

func TestCacheEvictionBoundsCapacity(t *testing.T) {
	const capacity = 128
	c := newCache(capacity)
	for i := uint32(0); i < 10*capacity; i++ {
		c.put(i, i+1, i%2 == 0)
	}
	if n := c.len(); n > capacity {
		t.Fatalf("cache holds %d entries, capacity %d", n, capacity)
	}
	last := uint32(10*capacity - 1)
	if _, ok := c.get(last, last+1); !ok {
		t.Error("most recent entry was evicted")
	}
}

// TestCacheCapacityExact pins what Stats().Cache.Capacity means: the
// table's real slot count, the configured capacity rounded down to a
// power of two and at least 64, which an overfilled table then reports
// as its entry count.
func TestCacheCapacityExact(t *testing.T) {
	for _, tc := range []struct{ capacity, slots int }{
		{0, DefaultCacheCapacity}, {1 << 12, 1 << 12}, {1000, 512}, {100, 64}, {1, 64},
	} {
		_, s, _ := fixture(t, Config{CacheCapacity: tc.capacity})
		if got := s.Stats().Cache.Capacity; got != tc.slots {
			t.Errorf("capacity %d: stats report %d slots, want %d", tc.capacity, got, tc.slots)
		}
		if tc.slots > 1<<12 {
			continue
		}
		for i := uint32(0); i < uint32(20*tc.slots); i++ {
			s.cache.put(i, i, true)
		}
		if n := s.Stats().Cache.Entries; n != tc.slots {
			t.Errorf("capacity %d: overfilled table reports %d entries, want %d", tc.capacity, n, tc.slots)
		}
	}
}

// TestCacheShardRounding pins the table's geometry. Its name predates the
// table, whose 8-way sets are now its only shards: the set count is the
// largest power of two whose slots fit the configured capacity, and at
// least 2^slotFlagBits so the tag beside the flags keeps every key bit.
func TestCacheShardRounding(t *testing.T) {
	for _, tc := range []struct{ capacity, sets int }{
		{1, 8}, {63, 8}, {64, 8}, {100, 8}, {127, 8}, {128, 16},
		{1000, 64}, {1 << 12, 512}, {1<<12 + 8, 512}, {DefaultCacheCapacity, 1 << 17},
	} {
		c := newCache(tc.capacity)
		if got := len(c.sets); got != tc.sets {
			t.Errorf("capacity %d: %d sets, want %d", tc.capacity, got, tc.sets)
		}
		if c.mask != uint64(len(c.sets)-1) || 1<<c.shift != len(c.sets) {
			t.Errorf("capacity %d: mask %#x and shift %d do not index %d sets",
				tc.capacity, c.mask, c.shift, len(c.sets))
		}
		if tc.capacity >= 1<<slotFlagBits*cacheWays && c.capacity() > tc.capacity {
			t.Errorf("capacity %d: table of %d slots exceeds the configured bound",
				tc.capacity, c.capacity())
		}
	}
}

// exactAnswer is a fixed, pair-specific answer: a cache that returned
// another pair's entry would disagree with it about half the time.
func exactAnswer(u, v uint32) bool { return bits.OnesCount32(u^v*0x9e3779b9)&1 == 1 }

// TestCacheExact pushes far more distinct pairs than slots through the
// smallest table, where the set index is narrowest and the stored tag
// widest: every hit must return the pair's own answer.
func TestCacheExact(t *testing.T) {
	c := newCache(64)
	if c.capacity() != 64 {
		t.Fatalf("smallest table has %d slots, want 64", c.capacity())
	}
	rng := rand.New(rand.NewSource(7))
	pairs := make([][2]uint32, 1<<14)
	for i := range pairs {
		pairs[i] = [2]uint32{rng.Uint32(), rng.Uint32()}
	}
	check := func(p [2]uint32) (hit bool) {
		ans, ok := c.get(p[0], p[1])
		if ok && ans != exactAnswer(p[0], p[1]) {
			t.Fatalf("get(%d,%d) returned another pair's answer", p[0], p[1])
		}
		return ok
	}
	for i, p := range pairs {
		c.put(p[0], p[1], exactAnswer(p[0], p[1]))
		if !check(p) {
			t.Fatalf("pair %d missing right after its put", i)
		}
		check(pairs[rng.Intn(i+1)])
	}
	resident := 0
	for _, p := range pairs {
		if check(p) {
			resident++
		}
	}
	if resident != c.capacity() {
		t.Fatalf("%d of %d pairs resident in a %d-slot table", resident, len(pairs), c.capacity())
	}
}

// sameSet returns n distinct pairs that all map to set 0 of c.
func sameSet(c *cache, n int) [][2]uint32 {
	var out [][2]uint32
	for u := uint32(0); len(out) < n; u++ {
		if fmix64(uint64(u)<<32|1)&c.mask == 0 {
			out = append(out, [2]uint32{u, 1})
		}
	}
	return out
}

// TestCacheClockEviction pins replacement inside a set: a get hit sets
// the reference bit, and put evicts the first way whose bit is clear,
// starting from the way the new pair's hash picks and clearing the bits
// it passes.
func TestCacheClockEviction(t *testing.T) {
	c := newCache(64)
	ways := &c.sets[0]
	p := sameSet(c, cacheWays+2)
	holds := func(i uint64, q [2]uint32) bool {
		_, key := c.locate(q[0], q[1])
		return ways[i].Load()&^(slotAnswer|slotRef) == key
	}
	startWay := func(q [2]uint32) uint64 {
		_, key := c.locate(q[0], q[1])
		return (key >> slotFlagBits) % cacheWays
	}
	for _, q := range p[:cacheWays] {
		c.put(q[0], q[1], true)
	}
	for i, q := range p[:cacheWays] {
		if i != 5 {
			c.get(q[0], q[1]) // reference every way but 5
		}
	}
	// Way 5 is the only one with a clear bit, so it is the victim from
	// any start; the ways passed on the way there lose their bits.
	c.put(p[8][0], p[8][1], true)
	passed := map[uint64]bool{}
	for i := startWay(p[8]); i != 5; i = (i + 1) % cacheWays {
		passed[i] = true
	}
	for i := uint64(0); i < cacheWays; i++ {
		if referenced := ways[i].Load()&slotRef != 0; referenced != (i != 5 && !passed[i]) {
			t.Fatalf("way %d: referenced = %v after the pass from way %d", i, referenced, startWay(p[8]))
		}
	}
	if !holds(5, p[8]) {
		t.Fatal("the only unreferenced way was not the victim")
	}
	// With every way referenced, the pass clears all eight bits and comes
	// back round to its start way.
	for i := range ways {
		ways[i].Or(slotRef)
	}
	c.put(p[9][0], p[9][1], true)
	if !holds(startWay(p[9]), p[9]) {
		t.Fatalf("a fully referenced set did not evict the start way %d", startWay(p[9]))
	}
	for i := range ways {
		if ways[i].Load()&slotRef != 0 {
			t.Fatalf("way %d still referenced after a full pass", i)
		}
	}
}

// TestS3FIFOPromotionOnHit pins what a hit buys. Its name predates the
// table: S3-FIFO promoted a probationary entry that had been hit instead
// of evicting it. The table's reference bit does that job: in a full set,
// an entry hit since the last pass survives the next eviction, whichever
// way the pass starts from, and one unhit entry goes instead.
func TestS3FIFOPromotionOnHit(t *testing.T) {
	for hit := 0; hit < cacheWays; hit++ {
		c := newCache(64)
		p := sameSet(c, cacheWays+1)
		for _, q := range p[:cacheWays] {
			c.put(q[0], q[1], exactAnswer(q[0], q[1]))
		}
		c.get(p[hit][0], p[hit][1])
		c.put(p[cacheWays][0], p[cacheWays][1], exactAnswer(p[cacheWays][0], p[cacheWays][1]))
		if ans, ok := c.get(p[hit][0], p[hit][1]); !ok || ans != exactAnswer(p[hit][0], p[hit][1]) {
			t.Fatalf("entry %d was hit, then evicted by the next put: %v, %v", hit, ans, ok)
		}
		resident := 0
		for _, q := range p {
			if _, ok := c.get(q[0], q[1]); ok {
				resident++
			}
		}
		if resident != cacheWays {
			t.Fatalf("hit on entry %d: %d of %d pairs resident in one %d-way set",
				hit, resident, len(p), cacheWays)
		}
	}
}

// TestZipfS3FIFOBeatsFIFO is the hit-rate regression gate. Its name
// predates the table: the trace once checked that S3-FIFO met plain FIFO.
// On this Zipfian trace at this capacity, plain FIFO answered 0.751 of
// the queries from cache. Random replacement scores about 0.748 here, so
// the table clears the floor only through its reference bits.
// BenchmarkCacheHitRateZipf reports the absolute numbers.
func TestZipfS3FIFOBeatsFIFO(t *testing.T) {
	const (
		universe = 1 << 14
		capacity = universe / 8
		queries  = 1 << 17
		fifoRate = 0.751
	)
	c := newCache(capacity)
	hits := 0
	for _, p := range zipfPairs(1<<30, universe, queries, 1.07, 41) {
		if _, ok := c.get(p[0], p[1]); ok {
			hits++
		} else {
			c.put(p[0], p[1], p[0] < p[1])
		}
	}
	rate := float64(hits) / queries
	t.Logf("zipf s=1.07 universe=%d capacity=%d: table hit rate %.4f, fifo %.3f", universe, capacity, rate, fifoRate)
	if rate <= fifoRate {
		t.Fatalf("table hit rate %.4f does not beat plain FIFO's %.3f at equal capacity", rate, fifoRate)
	}
}

func TestCacheConcurrent(t *testing.T) {
	// A small table over a larger pair space keeps every set evicting,
	// so the goroutines race on the same words.
	c := newCache(1 << 9)
	var wg sync.WaitGroup
	var hits atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				u, v := rng.Uint32()%64, rng.Uint32()%64
				// The invariant under concurrency: an entry for (u,v) always
				// holds the deterministic answer, no matter which goroutine
				// wrote it.
				if ans, ok := c.get(u, v); ok {
					hits.Add(1)
					if ans != exactAnswer(u, v) {
						t.Error("cache returned a value nobody wrote for this pair")
						return
					}
				}
				c.put(u, v, exactAnswer(u, v))
			}
		}(int64(w))
	}
	wg.Wait()
	if n := c.len(); n > c.capacity() {
		t.Fatalf("table holds %d entries, capacity %d", n, c.capacity())
	}
	if hits.Load() == 0 {
		t.Fatal("no goroutine ever hit: the get path went untested")
	}
}

// TestCacheGetZeroAlloc pins the //reach:hotpath contract reachlint
// enforces statically: a lookup, hit or miss, must not allocate.
func TestCacheGetZeroAlloc(t *testing.T) {
	c := newCache(1024)
	c.put(1, 2, true)
	c.put(3, 4, false)
	allocs := testing.AllocsPerRun(1000, func() {
		c.get(1, 2)
		c.get(3, 4)
		c.get(9, 9) // miss
	})
	if allocs != 0 {
		t.Fatalf("get allocated %v times per run; the hot path must be allocation-free", allocs)
	}
}
