package server

import "sync/atomic"

// DefaultCacheCapacity is the default query-cache size in answers: 2^17
// sets of eight slots, 8 MiB per server.
const DefaultCacheCapacity = 1 << 20

// cacheWays is the set associativity: eight 8-byte slots are one 64-byte
// cache line, so a lookup or an insert touches one line.
const cacheWays = 8

// A slot is one word: tag<<slotFlagBits | flags, where tag is the pair
// key's mixed hash above the set index. slotValid is set on every stored
// entry, so the zero word is an empty slot.
const (
	slotValid    = 1 << 0
	slotAnswer   = 1 << 1
	slotRef      = 1 << 2
	slotFlagBits = 3
)

// cache is the query cache: a fixed table of 8-way sets mapping a query
// pair to its answer. It holds positive and negative answers alike: the
// oracle is immutable, so entries never go stale and eviction exists
// only to bound memory.
//
// Every slot is one atomic word, so get and put take no lock and no
// reader sees a torn entry. A slot stores the bits of the pair key's
// fmix64 hash above the set index. fmix64 is a bijection, so the set
// index plus the stored bits give back the whole key: a hit is exact,
// never another pair's answer.
//
// Replacement is CLOCK inside a set: get sets the reference bit of the
// slot it hits, and put evicts the first way whose bit is clear, clearing
// the bits it passes, from a start way the pair's hash picks. Two
// concurrent puts of one new pair can land in two ways; both hold the
// same answer, so the duplicate costs a slot, never exactness.
type cache struct {
	// sets are 64-byte lines and the table is a power-of-two multiple of
	// 512 bytes, which the Go allocator places on a line boundary.
	sets  [][cacheWays]atomic.Uint64
	mask  uint64 // len(sets)-1: the set index is hash&mask
	shift uint   // log2(len(sets)): the tag is hash>>shift
}

// newCache builds a table of capacity/8 sets, rounded down to a power of
// two so the configured capacity stays an upper bound. It has at least
// 2^slotFlagBits sets: the set index is then at least slotFlagBits wide,
// so the tag fits beside the flags without dropping any key bit.
func newCache(capacity int) *cache {
	shift := uint(slotFlagBits)
	for capacity>>(shift+1) >= cacheWays {
		shift++
	}
	return &cache{
		sets:  make([][cacheWays]atomic.Uint64, 1<<shift),
		mask:  1<<shift - 1,
		shift: shift,
	}
}

// fmix64 is Murmur3's 64-bit finalizer: a bijection with full avalanche,
// so dense nearby pair keys still spread across sets.
func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// locate returns the pair's set and the slot word naming the pair: its
// tag and the valid bit, with the answer and reference bits clear.
func (c *cache) locate(u, v uint32) (*[cacheWays]atomic.Uint64, uint64) {
	h := fmix64(uint64(u)<<32 | uint64(v))
	return &c.sets[h&c.mask], h>>c.shift<<slotFlagBits | slotValid
}

// get returns the cached answer for (u, v) and whether one was present.
//
//reach:hotpath
func (c *cache) get(u, v uint32) (answer, ok bool) {
	set, key := c.locate(u, v)
	for i := range set {
		w := set[i].Load()
		if w&^(slotAnswer|slotRef) == key {
			if w&slotRef == 0 {
				// Losing this race only loses one reference mark.
				set[i].CompareAndSwap(w, w|slotRef)
			}
			return w&slotAnswer != 0, true
		}
	}
	return false, false
}

// put stores the answer for (u, v) in an empty way or the way that
// already holds the pair, and otherwise evicts by CLOCK. A put that
// loses a race for its slot is dropped: the cache is only a shortcut.
//
//reach:hotpath
func (c *cache) put(u, v uint32, answer bool) {
	set, key := c.locate(u, v)
	w := key
	if answer {
		w |= slotAnswer
	}
	// Slots are never emptied and put fills the first empty way, so the
	// occupied ways are a prefix of the set: past an empty way no later
	// way can hold the pair.
	for i := range set {
		old := set[i].Load()
		if old == 0 || old&^(slotAnswer|slotRef) == key {
			set[i].CompareAndSwap(old, w|old&slotRef)
			return
		}
	}
	// The pass starts at a way picked by the pair's own hash bits, so
	// evictions spread over the set instead of churning way 0.
	start := (key >> slotFlagBits) % cacheWays
	for j := range uint64(cacheWays) {
		i := (start + j) % cacheWays
		old := set[i].Load()
		if old&slotRef == 0 {
			set[i].CompareAndSwap(old, w)
			return
		}
		set[i].CompareAndSwap(old, old&^slotRef)
	}
	// Every way was referenced and the pass cleared them all, so the
	// start way is now the first whose bit is clear.
	set[start].Store(w)
}

// capacity is the table's slot count.
func (c *cache) capacity() int { return len(c.sets) * cacheWays }

// len counts occupied slots in one pass over the table.
func (c *cache) len() int {
	n := 0
	for i := range c.sets {
		for j := range c.sets[i] {
			if c.sets[i][j].Load() != 0 {
				n++
			}
		}
	}
	return n
}

// CacheStats is the cache section of /v1/stats.
type CacheStats struct {
	Capacity int     `json:"capacity"`
	Entries  int     `json:"entries"`
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRate  float64 `json:"hit_rate"`
}
