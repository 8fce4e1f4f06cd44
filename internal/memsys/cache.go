package memsys

import (
	"fmt"
	"math/bits"
)

// Entry is one way of one set in a SetAssoc cache. Tag holds the full
// block-aligned address (not a truncated tag) for simplicity; Payload is the
// per-line state owned by the client (coherence state, data, metadata, ...).
type Entry[V any] struct {
	Valid   bool
	Tag     Addr // block-aligned address
	Payload V
	lastUse uint64 // LRU timestamp
	pinned  bool
}

// SetAssoc is a generic set-associative cache with true-LRU replacement.
// Addresses are mapped to sets by block-aligned address bits; the payload
// type V carries whatever per-line state the client needs.
//
// Each set keeps a packed occupancy bitset (bit w set iff way w is valid) and
// a pin bitset, so lookups walk only the valid ways and victim selection finds
// an invalid way with a single TrailingZeros64 — the hot-loop win for mostly
// warm caches where the per-way Valid test used to dominate. This caps the
// associativity at 64 ways.
type SetAssoc[V any] struct {
	name      string
	sets      int
	ways      int
	blockSize int
	setShift  int
	setMask   Addr
	waysMask  uint64
	entries   []Entry[V] // sets*ways, row-major by set
	occ       []uint64   // per-set valid-way bitsets
	pins      []uint64   // per-set pinned-way bitsets
	clock     uint64

	// mru is an 8-slot direct-mapped cache of recent Lookup hits (entry index
	// per tag, slot chosen by low line-address bits). It is purely an index
	// shortcut: a hit performs the same LRU refresh as the set scan would, so
	// replacement behavior is bit-identical. Insert and Invalidate clear it
	// (entry indexes stay stable, but a displaced or removed tag must not
	// linger).
	mruTags [8]Addr
	mruIdxs [8]int32
}

// NewSetAssoc builds a cache with the given total entry count and
// associativity. entries must be a multiple of ways and entries/ways must be a
// power of two; ways must be at most 64 (the occupancy bitset width).
// blockSize must be a power of two and determines how addresses are
// block-aligned before indexing.
func NewSetAssoc[V any](name string, entries, ways, blockSize int) *SetAssoc[V] {
	if ways <= 0 || entries <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("memsys: bad cache geometry %s: entries=%d ways=%d", name, entries, ways))
	}
	if ways > 64 {
		panic(fmt.Sprintf("memsys: associativity above 64 unsupported, got %d (%s)", ways, name))
	}
	sets := entries / ways
	if !IsPow2(sets) {
		panic(fmt.Sprintf("memsys: sets must be a power of two, got %d (%s)", sets, name))
	}
	if !IsPow2(blockSize) {
		panic(fmt.Sprintf("memsys: block size must be a power of two, got %d (%s)", blockSize, name))
	}
	var waysMask uint64
	if ways == 64 {
		waysMask = ^uint64(0)
	} else {
		waysMask = uint64(1)<<uint(ways) - 1
	}
	return &SetAssoc[V]{
		name:      name,
		sets:      sets,
		ways:      ways,
		blockSize: blockSize,
		setShift:  Log2(blockSize),
		setMask:   Addr(sets - 1),
		waysMask:  waysMask,
		entries:   make([]Entry[V], sets*ways),
		occ:       make([]uint64, sets),
		pins:      make([]uint64, sets),
		mruIdxs:   [8]int32{-1, -1, -1, -1, -1, -1, -1, -1},
	}
}

// Sets returns the number of sets.
func (c *SetAssoc[V]) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *SetAssoc[V]) Ways() int { return c.ways }

// Entries returns the total number of entries.
func (c *SetAssoc[V]) Entries() int { return c.sets * c.ways }

// SetIndex returns the set index for address a.
func (c *SetAssoc[V]) SetIndex(a Addr) int {
	return int((a >> Addr(c.setShift)) & c.setMask)
}

// peekIdx returns the set index and way index of the entry holding a, or
// way -1 on miss. a must be block-aligned.
func (c *SetAssoc[V]) peekIdx(a Addr) (int, int) {
	si := c.SetIndex(a)
	set := c.entries[si*c.ways : (si+1)*c.ways]
	for m := c.occ[si]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if set[w].Tag == a {
			return si, w
		}
	}
	return si, -1
}

// Lookup returns the entry holding address a, or nil on miss. On hit the
// entry's LRU timestamp is refreshed.
func (c *SetAssoc[V]) Lookup(a Addr) *Entry[V] {
	a = a.BlockAlign(c.blockSize)
	s := int((a >> Addr(c.setShift)) & 7)
	if i := c.mruIdxs[s]; i >= 0 && c.mruTags[s] == a {
		e := &c.entries[i]
		c.clock++
		e.lastUse = c.clock
		return e
	}
	si, w := c.peekIdx(a)
	if w < 0 {
		return nil
	}
	e := &c.entries[si*c.ways+w]
	c.clock++
	e.lastUse = c.clock
	c.mruIdxs[s], c.mruTags[s] = int32(si*c.ways+w), a
	return e
}

// Peek returns the entry holding address a without refreshing LRU state, or
// nil on miss.
func (c *SetAssoc[V]) Peek(a Addr) *Entry[V] {
	a = a.BlockAlign(c.blockSize)
	si, w := c.peekIdx(a)
	if w < 0 {
		return nil
	}
	return &c.entries[si*c.ways+w]
}

// victimIdx returns the way Insert would use for (block-aligned) a: the
// lowest invalid way if one exists, otherwise the least recently used
// unpinned way. It returns -1 if every way in the set is pinned.
func (c *SetAssoc[V]) victimIdx(a Addr) (int, int) {
	si := c.SetIndex(a)
	if inv := ^c.occ[si] & c.waysMask; inv != 0 {
		return si, bits.TrailingZeros64(inv)
	}
	set := c.entries[si*c.ways : (si+1)*c.ways]
	victim := -1
	for m := c.occ[si] &^ c.pins[si]; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if victim < 0 || set[w].lastUse < set[victim].lastUse {
			victim = w
		}
	}
	return si, victim
}

// Victim returns the entry that Insert would use for address a: an invalid
// way if one exists, otherwise the least recently used unpinned way. It
// returns nil if every way in the set is pinned.
func (c *SetAssoc[V]) Victim(a Addr) *Entry[V] {
	a = a.BlockAlign(c.blockSize)
	si, w := c.victimIdx(a)
	if w < 0 {
		return nil
	}
	return &c.entries[si*c.ways+w]
}

// Insert places address a into the cache and returns the entry plus, if a
// valid line was displaced, a copy of the displaced entry. The new entry's
// payload is the zero value of V; the caller fills it in. Insert panics if a
// is already present (use Lookup first) or if all ways are pinned.
func (c *SetAssoc[V]) Insert(a Addr) (*Entry[V], *Entry[V]) {
	a = a.BlockAlign(c.blockSize)
	if c.Peek(a) != nil {
		panic(fmt.Sprintf("memsys: %s: insert of resident address %s", c.name, a))
	}
	si, w := c.victimIdx(a)
	if w < 0 {
		panic(fmt.Sprintf("memsys: %s: all ways pinned in set of %s", c.name, a))
	}
	victim := &c.entries[si*c.ways+w]
	var evicted *Entry[V]
	if victim.Valid {
		ev := *victim
		evicted = &ev
	}
	var zero V
	c.clock++
	*victim = Entry[V]{Valid: true, Tag: a, Payload: zero, lastUse: c.clock}
	c.occ[si] |= 1 << uint(w)
	c.pins[si] &^= 1 << uint(w)
	c.mruIdxs = [8]int32{-1, -1, -1, -1, -1, -1, -1, -1}
	return victim, evicted
}

// Invalidate removes address a from the cache, returning the entry contents
// (by copy) if it was present.
func (c *SetAssoc[V]) Invalidate(a Addr) *Entry[V] {
	a = a.BlockAlign(c.blockSize)
	si, w := c.peekIdx(a)
	if w < 0 {
		return nil
	}
	e := &c.entries[si*c.ways+w]
	ev := *e
	var zero Entry[V]
	*e = zero
	c.occ[si] &^= 1 << uint(w)
	c.pins[si] &^= 1 << uint(w)
	c.mruIdxs = [8]int32{-1, -1, -1, -1, -1, -1, -1, -1}
	return &ev
}

// Pin marks the line holding a as ineligible for replacement. It reports
// whether the line was found.
func (c *SetAssoc[V]) Pin(a Addr) bool {
	a = a.BlockAlign(c.blockSize)
	si, w := c.peekIdx(a)
	if w < 0 {
		return false
	}
	c.entries[si*c.ways+w].pinned = true
	c.pins[si] |= 1 << uint(w)
	return true
}

// Unpin clears the replacement pin on the line holding a.
func (c *SetAssoc[V]) Unpin(a Addr) bool {
	a = a.BlockAlign(c.blockSize)
	si, w := c.peekIdx(a)
	if w < 0 {
		return false
	}
	c.entries[si*c.ways+w].pinned = false
	c.pins[si] &^= 1 << uint(w)
	return true
}

// ForEach calls fn for every valid entry. Mutating payloads inside fn is
// allowed; inserting or invalidating is not.
func (c *SetAssoc[V]) ForEach(fn func(*Entry[V])) {
	for si := 0; si < c.sets; si++ {
		set := c.entries[si*c.ways : (si+1)*c.ways]
		for m := c.occ[si]; m != 0; m &= m - 1 {
			fn(&set[bits.TrailingZeros64(m)])
		}
	}
}

// CountValid returns the number of valid entries.
func (c *SetAssoc[V]) CountValid() int {
	n := 0
	for _, m := range c.occ {
		n += bits.OnesCount64(m)
	}
	return n
}
