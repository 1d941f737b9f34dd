// Package cache implements a generic set-associative cache array with true
// LRU replacement. It is the building block for the private L1/L2 caches,
// the baseline and precise LLCs, and (via decoupled instantiation) the tag
// and data arrays of the Doppelgänger cache.
//
// The arrays are functional: they track tags, data payloads, dirty bits and
// per-line coherence metadata, but carry no timing. The timing simulator
// attaches latencies and event counters on top.
package cache

import (
	"fmt"
	"math/bits"
	"strings"

	"doppelganger/internal/coherence"
	"doppelganger/internal/faults"
	"doppelganger/internal/memdata"
	"doppelganger/internal/metrics"
)

// Config describes one set-associative array.
type Config struct {
	Name      string
	SizeBytes int // total data capacity; must be Ways*Sets*BlockSize
	Ways      int
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int {
	return c.SizeBytes / (memdata.BlockSize * c.Ways)
}

// Blocks returns the number of block frames.
func (c Config) Blocks() int { return c.SizeBytes / memdata.BlockSize }

// Validate checks that the geometry is a power-of-two set count.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	}
	if c.SizeBytes%(memdata.BlockSize*c.Ways) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible into %d ways of %dB blocks", c.Name, c.SizeBytes, c.Ways, memdata.BlockSize)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache %q: set count %d is not a power of two", c.Name, s)
	}
	return nil
}

// Line is the payload of one cache frame. Coh is the private-cache
// coherence state. A frame's tag, valid bit and LRU stamp live in the
// Cache's dense per-set arrays instead, so a probe never touches payloads.
type Line struct {
	Dirty bool
	Coh   coherence.State
	Addr  memdata.Addr // full block address (redundant with tag+set, kept for convenience)
	Data  memdata.Block
}

// Stats counts functional events on the array.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Dirty     uint64 // dirty evictions (writebacks)
}

// cacheMetrics are the array's registry instruments, resolved once by
// AttachMetrics. The zero value (all nil) is the disabled fast path: each
// event costs one nil check and zero allocations (locked down by
// TestDisabledMetricsZeroAllocs).
type cacheMetrics struct {
	hits, misses, evictions, dirty *metrics.Counter
}

// Cache is a set-associative array with LRU replacement. Frames are
// numbered set-major (frame = set*Ways + way). The tag array (keys) and the
// LRU stamps are dense slices apart from the payloads (lines), as the
// paper's decoupled tag and data arrays are (§3): a 16-way probe reads 16
// adjacent uint32s instead of walking 16 payload frames.
type Cache struct {
	cfg      Config
	ways     int
	keys     []uint32 // tag+1 per frame; 0 marks an invalid frame
	lru      []uint64 // last-touch stamp per frame; read only for valid frames
	lines    []Line
	setMask  uint32
	tagShift uint // OffsetBits + set index bits
	tick     uint64
	Stats    Stats
	m        cacheMetrics

	// Fault injection (nil = disabled fast path, like the metrics sinks).
	inj             *faults.Injector
	injTag, injData faults.Target
}

// New builds an array from cfg, panicking on invalid geometry (all
// configurations in this repository are static).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	frames := nsets * cfg.Ways
	indexBits := bits.TrailingZeros32(uint32(nsets))
	return &Cache{
		cfg:      cfg,
		ways:     cfg.Ways,
		keys:     make([]uint32, frames),
		lru:      make([]uint64, frames),
		lines:    make([]Line, frames),
		setMask:  uint32(nsets - 1),
		tagShift: uint(memdata.OffsetBits + indexBits),
	}
}

// Config returns the array geometry.
func (c *Cache) Config() Config { return c.cfg }

// AttachMetrics resolves the array's counters in reg under
// "cache.<name>.*". Per-core arrays share a config name, so their counters
// aggregate — matching the hierarchy-level legacy totals the differential
// tests compare against. A nil registry leaves the disabled fast path.
func (c *Cache) AttachMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	prefix := "cache." + strings.ToLower(c.cfg.Name) + "."
	c.m = cacheMetrics{
		hits:      reg.Counter(prefix + "hits"),
		misses:    reg.Counter(prefix + "misses"),
		evictions: reg.Counter(prefix + "evictions"),
		dirty:     reg.Counter(prefix + "dirty_evictions"),
	}
}

// AttachFaults wires a fault injector into the array's hit path, charging
// draws against the given tag/data targets. A nil injector leaves the
// disabled fast path (one nil check per hit, zero allocations).
func (c *Cache) AttachFaults(inj *faults.Injector, tag, data faults.Target) {
	c.inj, c.injTag, c.injData = inj, tag, data
}

// SetIndexBits returns log2(number of sets).
func (c *Cache) SetIndexBits() int { return int(c.tagShift) - memdata.OffsetBits }

// TagBits returns the tag width for a 32-bit physical address. Tags are at
// most 26 bits wide, so the stored key tag+1 never overflows.
func (c *Cache) TagBits() int { return 32 - int(c.tagShift) }

// set returns the frame range of addr's set and addr's stored key.
func (c *Cache) set(addr memdata.Addr) (base int, key uint32) {
	a := uint32(addr)
	return int((a>>memdata.OffsetBits)&c.setMask) * c.ways, a>>c.tagShift + 1
}

// find returns the frame holding addr's block, or -1.
func (c *Cache) find(addr memdata.Addr) int {
	base, key := c.set(addr)
	for i, k := range c.keys[base : base+c.ways] {
		if k == key {
			return base + i
		}
	}
	return -1
}

// Lookup finds the line holding addr's block, updating LRU on a hit.
// It returns nil on a miss. Stats are updated.
func (c *Cache) Lookup(addr memdata.Addr) *Line {
	f := c.find(addr)
	if f < 0 {
		c.Stats.Misses++
		c.m.misses.Inc()
		return nil
	}
	c.touch(f)
	c.Stats.Hits++
	c.m.hits.Inc()
	if c.inj != nil {
		c.injectHit(f)
	}
	return &c.lines[f]
}

// injectHit draws faults against the frame being returned from a hit: one
// data-array draw that may corrupt the stored payload in place, and one
// tag-array draw that may flip a bit of the stored tag. The Addr field is
// the simulator's ground truth for writebacks and back-invalidations and is
// deliberately left intact — a corrupted tag makes the line stop answering
// for its true address (and possibly answer for another), which the
// hierarchy's inclusivity corners already absorb.
func (c *Cache) injectHit(f int) {
	c.inj.CorruptBlock(c.injData, &c.lines[f].Data)
	c.keys[f] = c.inj.CorruptBits(c.injTag, c.keys[f]-1, c.TagBits()) + 1
}

// Probe finds the line holding addr's block without updating LRU or stats.
func (c *Cache) Probe(addr memdata.Addr) *Line {
	if f := c.find(addr); f >= 0 {
		return &c.lines[f]
	}
	return nil
}

// touch marks frame f most recently used.
func (c *Cache) touch(f int) {
	c.tick++
	c.lru[f] = c.tick
}

// Victim selects the fill frame for addr's set: the first invalid way if
// one exists, otherwise the first least-recently-used way. The frame is
// still live; callers inspect it (Valid, At) for writebacks and
// back-invalidations before Install overwrites it.
func (c *Cache) Victim(addr memdata.Addr) int {
	base, _ := c.set(addr)
	keys, lru := c.keys[base:base+c.ways], c.lru[base:base+c.ways]
	v := 0
	for i, k := range keys {
		if k == 0 {
			return base + i
		}
		if lru[i] < lru[v] {
			v = i
		}
	}
	return base + v
}

// Valid reports whether frame f holds a block.
func (c *Cache) Valid(f int) bool { return c.keys[f] != 0 }

// At returns frame f's payload.
func (c *Cache) At(f int) *Line { return &c.lines[f] }

// Install fills addr's block into frame f (which must come from
// Victim(addr)), resetting its metadata, promoting it to MRU and returning
// the filled line. Eviction bookkeeping is the caller's responsibility;
// Install records eviction stats if f was valid.
func (c *Cache) Install(f int, addr memdata.Addr, data *memdata.Block) *Line {
	l := &c.lines[f]
	if c.keys[f] != 0 {
		c.Stats.Evictions++
		c.m.evictions.Inc()
		if l.Dirty {
			c.Stats.Dirty++
			c.m.dirty.Inc()
		}
	}
	_, c.keys[f] = c.set(addr)
	l.Dirty = false
	l.Coh = coherence.Invalid
	l.Addr = addr.BlockAddr()
	if data != nil {
		l.Data = *data
	} else {
		l.Data = memdata.Block{}
	}
	c.touch(f)
	return l
}

// Invalidate drops addr's block if present, returning the stale line value
// (for writeback decisions) and whether it was present. The frame's payload
// is cleared, so a pointer still held to it reads a zero block.
func (c *Cache) Invalidate(addr memdata.Addr) (Line, bool) {
	f := c.find(addr)
	if f < 0 {
		return Line{}, false
	}
	old := c.lines[f]
	c.keys[f] = 0
	c.lines[f] = Line{}
	return old, true
}

// ForEachValid visits every valid line; used by the snapshot analyzers.
func (c *Cache) ForEachValid(fn func(l *Line)) {
	for f, k := range c.keys {
		if k != 0 {
			fn(&c.lines[f])
		}
	}
}

// ValidCount returns the number of valid lines.
func (c *Cache) ValidCount() int {
	n := 0
	for _, k := range c.keys {
		if k != 0 {
			n++
		}
	}
	return n
}

// Flush invalidates the entire array, returning dirty lines to the caller
// in unspecified order so writebacks can be performed.
func (c *Cache) Flush() []Line {
	var dirty []Line
	for f, k := range c.keys {
		if k != 0 && c.lines[f].Dirty {
			dirty = append(dirty, c.lines[f])
		}
		c.keys[f] = 0
		c.lines[f] = Line{}
	}
	return dirty
}
