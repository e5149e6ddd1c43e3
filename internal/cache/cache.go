// Package cache implements the set-associative write-back caches of the
// level-1 architectural simulator (Table 4.1): per-core L1s and the shared
// L2 whose contention behaviour drives the DTM-ACG results. The shared L2
// is the load-bearing component: when cores are clock-gated, the surviving
// programs occupy more ways and miss less, which is the paper's main
// source of DTM-ACG performance gain (§4.4.2, §5.4.3).
package cache

import (
	"fmt"
	"math"
	"sync"
)

// Addr is a byte address. Streams address a per-core private region by
// setting high bits, so cores never alias.
type Addr = uint64

// AccessKind distinguishes loads from stores for dirty-bit maintenance.
type AccessKind int

const (
	// Load is a read access.
	Load AccessKind = iota
	// Store is a write access; it marks the line dirty.
	Store
)

// Result describes the outcome of an access.
type Result struct {
	Hit bool
	// Writeback holds the address of a dirty victim evicted by this
	// access; WritebackValid reports whether one occurred.
	Writeback      Addr
	WritebackValid bool
}

// Config sizes a cache.
type Config struct {
	SizeKB    int
	Ways      int
	LineBytes int
}

// Validate reports sizing errors.
func (c Config) Validate() error {
	if c.SizeKB <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache: non-positive dimension in %+v", c)
	}
	lines := c.SizeKB * 1024 / c.LineBytes
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// Stats counts cache events, overall and per requester core.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate returns misses/accesses, or 0 when idle.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative, write-back, write-allocate cache with LRU
// replacement. It is a functional model (tags only): timing is handled by
// the caller.
type Cache struct {
	cfg      Config
	sets     int
	ways     int
	lineBits uint
	setMask  uint64

	storage
	clock uint32 // last stamp handed out; renormalized before it wraps

	stats   Stats
	perCore []Stats
}

// storage is a cache's line arrays (sets × ways each). Release hands it
// to a pool shared by every cache of the same line count, so a level-1
// build storm reuses a few megabytes of L2 arrays instead of allocating
// them per build.
type storage struct {
	tags  []uint64 // tag 0 means empty (tags stored +1)
	dirty []bool
	owner []uint8  // requester core of the resident line
	stamp []uint32 // LRU timestamps, ordered within a set
}

// pools maps a line count to the *sync.Pool of released storage.
var pools sync.Map

// newStorage returns zeroed storage for lines lines, recycled when a
// released one of that size is available.
func newStorage(lines int) storage {
	if p, ok := pools.Load(lines); ok {
		if s, ok := p.(*sync.Pool).Get().(*storage); ok {
			clear(s.tags)
			clear(s.dirty)
			clear(s.owner)
			clear(s.stamp)
			return *s
		}
	}
	return storage{
		tags:  make([]uint64, lines),
		dirty: make([]bool, lines),
		owner: make([]uint8, lines),
		stamp: make([]uint32, lines),
	}
}

// New builds a cache for cfg with stats tracked for cores requester IDs
// 0..cores-1 (pass 1 for a private cache).
func New(cfg Config, cores int) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cores < 1 {
		cores = 1
	}
	lines := cfg.SizeKB * 1024 / cfg.LineBytes
	sets := lines / cfg.Ways
	lineBits := uint(0)
	for 1<<lineBits < cfg.LineBytes {
		lineBits++
	}
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		ways:     cfg.Ways,
		lineBits: lineBits,
		setMask:  uint64(sets - 1),
		storage:  newStorage(lines),
		perCore:  make([]Stats, cores),
	}
	return c, nil
}

// Release returns the cache's line arrays to the pool for the next cache
// of the same size. The cache must not be used afterwards; a second
// Release is a no-op.
func (c *Cache) Release() {
	if c.tags == nil {
		return
	}
	p, _ := pools.LoadOrStore(len(c.tags), new(sync.Pool))
	s := c.storage
	p.(*sync.Pool).Put(&s)
	c.storage = storage{}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Access performs one access by core (requester ID) and returns the
// result. On a miss the line is allocated, evicting the LRU way; a dirty
// victim's address is reported for writeback.
func (c *Cache) Access(core int, addr Addr, kind AccessKind) Result {
	if c.clock == math.MaxUint32 {
		c.renormalize()
	}
	c.clock++
	line := addr >> c.lineBits
	set := int(line & c.setMask)
	tag := line >> 0 // full line address stored; +1 marks valid
	base := set * c.ways

	c.stats.Accesses++
	if core >= 0 && core < len(c.perCore) {
		c.perCore[core].Accesses++
	}

	// Hit path.
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.tags[i] == tag+1 {
			c.stamp[i] = c.clock
			if kind == Store {
				c.dirty[i] = true
			}
			return Result{Hit: true}
		}
	}

	// Miss: find victim (empty way first, else LRU).
	c.stats.Misses++
	if core >= 0 && core < len(c.perCore) {
		c.perCore[core].Misses++
	}
	victim := base
	var oldest uint32 = math.MaxUint32
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.tags[i] == 0 {
			victim = i
			oldest = 0
			break
		}
		if c.stamp[i] < oldest {
			oldest = c.stamp[i]
			victim = i
		}
	}

	var res Result
	if c.tags[victim] != 0 && c.dirty[victim] {
		victimLine := c.tags[victim] - 1
		res.Writeback = victimLine << c.lineBits
		res.WritebackValid = true
		c.stats.Writebacks++
		oc := int(c.owner[victim])
		if oc < len(c.perCore) {
			c.perCore[oc].Writebacks++
		}
	}
	c.tags[victim] = tag + 1
	c.dirty[victim] = kind == Store
	c.stamp[victim] = c.clock
	if core >= 0 && core < 256 {
		c.owner[victim] = uint8(core)
	}
	return res
}

// renormalize rewrites each set's stamps as their ranks within the set,
// 1 for the least recently used valid line, and restarts the clock at
// the largest rank. Victim choice only compares stamps within one set,
// and every new stamp exceeds the clock, so LRU decisions are exactly
// those of an unbounded clock.
func (c *Cache) renormalize() {
	c.clock = 0
	ranks := make([]uint32, c.ways)
	for base := 0; base < len(c.tags); base += c.ways {
		for w := range ranks {
			ranks[w] = 0
			if c.tags[base+w] == 0 {
				continue
			}
			ranks[w] = 1
			for v := base; v < base+c.ways; v++ {
				if c.tags[v] != 0 && c.stamp[v] < c.stamp[base+w] {
					ranks[w]++
				}
			}
			c.clock = max(c.clock, ranks[w])
		}
		copy(c.stamp[base:], ranks)
	}
}

// Contains reports whether addr's line is resident (no LRU update).
func (c *Cache) Contains(addr Addr) bool {
	line := addr >> c.lineBits
	set := int(line & c.setMask)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line+1 {
			return true
		}
	}
	return false
}

// Stats returns the aggregate counters.
func (c *Cache) Stats() Stats { return c.stats }

// CoreStats returns the counters attributed to one requester core.
func (c *Cache) CoreStats(core int) Stats {
	if core < 0 || core >= len(c.perCore) {
		return Stats{}
	}
	return c.perCore[core]
}

// ResetStats clears the counters without disturbing cache contents, used
// after the warmup window of a level-1 run.
func (c *Cache) ResetStats() {
	c.stats = Stats{}
	for i := range c.perCore {
		c.perCore[i] = Stats{}
	}
}

// Flush empties the cache and returns the number of dirty lines dropped.
// Used when reassigning core ownership between batch jobs.
func (c *Cache) Flush() int {
	n := 0
	for i := range c.tags {
		if c.tags[i] != 0 && c.dirty[i] {
			n++
		}
		c.tags[i] = 0
		c.dirty[i] = false
		c.stamp[i] = 0
	}
	return n
}
