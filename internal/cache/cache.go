// Package cache implements the trace-driven cache hierarchy used for the
// hardware evaluation: small LRU L1/L2 filter caches in front of a shared
// last-level cache (LLC) with a pluggable replacement policy. This is the
// substitute for the paper's Sniper-based simulation (DESIGN.md Sec. 2);
// all evaluated metrics (LLC misses, access classification, memory time)
// are functions of the access stream and the hierarchy configuration.
package cache

import (
	"fmt"

	"grasp/internal/mem"
)

// BlockBits is log2 of the cache block size (64-byte blocks, as in the
// paper's Table VI).
const BlockBits = 6

// BlockSize is the cache block size in bytes.
const BlockSize = 1 << BlockBits

// BlockAddr converts a byte address to a block address.
func BlockAddr(addr uint64) uint64 { return addr >> BlockBits }

// Policy is an LLC replacement policy. The LLC invokes OnHit/OnFill/Victim
// with the set index, way index, and the triggering access (which carries
// the GRASP reuse hint and the synthetic PC).
//
// Victim may return bypass=true to indicate the block should not be
// allocated at all (used by pinning schemes when no way is evictable, and
// by Belady OPT for never-reused lines).
type Policy interface {
	// OnHit is called when the access hits in set/way.
	OnHit(set, way uint32, a mem.Access)
	// OnFill is called after a missing block is inserted into set/way.
	OnFill(set, way uint32, a mem.Access)
	// Victim chooses the way to evict from a full set, or bypasses.
	Victim(set uint32, a mem.Access) (way uint32, bypass bool)
	// OnEvict is called before the victim block's tag is replaced. Policies
	// that learn from evictions (SHiP, Leeway) use it; others may ignore it.
	OnEvict(set, way uint32)
}

// AccessObserver is implemented by policies that must see every LLC access
// in stream order before lookup (Belady OPT tracks its position in the
// trace; Hawkeye feeds its OPTgen sampler).
type AccessObserver interface {
	ObserveAccess(a mem.Access)
}

// Classifier attaches a reuse hint to an LLC-bound access. GRASP's ABR
// classification logic (internal/core) implements this; a nil classifier
// leaves every access with HintDefault, which disables the specialized
// management exactly as unset ABRs do in the paper.
type Classifier interface {
	Classify(addr uint64) mem.Hint
}

// Stats counts hits and misses at one cache level, with the Fig. 2
// breakdown of accesses/misses inside vs outside Property Arrays.
type Stats struct {
	Hits, Misses         uint64
	PropHits, PropMisses uint64
	Bypasses             uint64
	Evictions            uint64
	// Writebacks counts evictions of dirty blocks (write-back,
	// write-allocate semantics): the cache-to-next-level write traffic.
	Writebacks uint64
}

// Accesses returns total accesses at the level.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRatio returns the miss ratio, or 0 when there were no accesses.
func (s Stats) MissRatio() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses())
}

// invalidTag marks an empty way in the fused tag array. Block addresses are
// byte addresses shifted right by BlockBits, so no reachable address maps to
// all-ones and the sentinel doubles as the valid bit: a single uint64 load
// per way answers both "valid?" and "tag match?" (one cache line per set
// probe instead of separate tags/valid slices).
const invalidTag = ^uint64(0)

// Cache is one set-associative cache level.
type Cache struct {
	sets, ways uint32
	setMask    uint64
	tags       []uint64 // sets*ways, block addresses; invalidTag = empty way
	dirty      []bool
	// filled counts valid ways per set: once a set is full it can never
	// drain (evictions immediately refill, bypasses skip allocation), so
	// the miss path skips the invalid-way scan entirely. With the small
	// simulated geometries, warmup ends after a few hundred accesses and
	// every subsequent miss would otherwise scan all ways twice.
	filled []uint16
	policy Policy
	// observer is the policy's AccessObserver side, resolved once at
	// construction so Access does not repeat the type assertion per access.
	observer   AccessObserver
	classifier Classifier
	Stats      Stats
}

// Config describes a cache level geometry.
type Config struct {
	SizeBytes uint64
	Ways      uint32
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() uint32 {
	return uint32(c.SizeBytes / (BlockSize * uint64(c.Ways)))
}

// validate rejects geometries no level can index: size must be a multiple
// of Ways*BlockSize and the set count a power of two.
func (c Config) validate() error {
	sets := c.Sets()
	if sets == 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a positive power of two", sets)
	}
	if c.SizeBytes != uint64(sets)*uint64(c.Ways)*BlockSize {
		return fmt.Errorf("cache: size %d not divisible into %d ways of %dB blocks", c.SizeBytes, c.Ways, BlockSize)
	}
	return nil
}

// New creates a cache level with the given policy. Size must be a multiple
// of Ways*BlockSize and the set count must be a power of two.
func New(cfg Config, p Policy) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	tags := make([]uint64, sets*cfg.Ways)
	for i := range tags {
		tags[i] = invalidTag
	}
	obs, _ := p.(AccessObserver)
	return &Cache{
		sets: sets, ways: cfg.Ways, setMask: uint64(sets - 1),
		tags:     tags,
		dirty:    make([]bool, sets*cfg.Ways),
		filled:   make([]uint16, sets),
		policy:   p,
		observer: obs,
	}, nil
}

// MustNew is New, panicking on configuration errors; for tests/tools with
// static configurations.
func MustNew(cfg Config, p Policy) *Cache {
	c, err := New(cfg, p)
	if err != nil {
		panic(err)
	}
	return c
}

// SetClassifier installs the GRASP classification logic in front of this
// level (used for the LLC). Passing nil disables classification.
func (c *Cache) SetClassifier(cl Classifier) { c.classifier = cl }

// Policy returns the replacement policy.
func (c *Cache) Policy() Policy { return c.policy }

// NumSets returns the set count.
func (c *Cache) NumSets() uint32 { return c.sets }

// NumWays returns the associativity.
func (c *Cache) NumWays() uint32 { return c.ways }

// SizeBytes returns the capacity in bytes.
func (c *Cache) SizeBytes() uint64 {
	return uint64(c.sets) * uint64(c.ways) * BlockSize
}

// set returns the set index for a block address.
func (c *Cache) set(block uint64) uint32 { return uint32(block & c.setMask) }

// Access performs one access. It returns true on a hit. On a miss the
// block is inserted (unless the policy bypasses).
func (c *Cache) Access(a mem.Access) bool {
	if c.classifier != nil {
		a.Hint = c.classifier.Classify(a.Addr)
	}
	if c.observer != nil {
		c.observer.ObserveAccess(a)
	}
	block := BlockAddr(a.Addr)
	set := c.set(block)
	base := set * c.ways
	tags := c.tags[base : base+c.ways : base+c.ways]
	for w, t := range tags {
		if t == block {
			c.Stats.Hits++
			if a.Property {
				c.Stats.PropHits++
			}
			if a.Write {
				c.dirty[base+uint32(w)] = true
			}
			c.policy.OnHit(set, uint32(w), a)
			return true
		}
	}
	c.Stats.Misses++
	if a.Property {
		c.Stats.PropMisses++
	}
	// Fill: prefer an invalid way (skipped once the set is full — it can
	// never drain, so the scan could not find one).
	if c.filled[set] < uint16(c.ways) {
		for w, t := range tags {
			if t == invalidTag {
				tags[w] = block
				c.filled[set]++
				c.dirty[base+uint32(w)] = a.Write
				c.policy.OnFill(set, uint32(w), a)
				return false
			}
		}
	}
	w, bypass := c.policy.Victim(set, a)
	if bypass {
		c.Stats.Bypasses++
		return false
	}
	if w >= c.ways {
		panic(fmt.Sprintf("cache: policy %T returned invalid victim way %d", c.policy, w))
	}
	c.Stats.Evictions++
	if c.dirty[base+w] {
		c.Stats.Writebacks++
	}
	c.policy.OnEvict(set, w)
	c.tags[base+w] = block
	c.dirty[base+w] = a.Write
	c.policy.OnFill(set, w, a)
	return false
}

// Contains reports whether the block holding addr is cached (for tests).
func (c *Cache) Contains(addr uint64) bool {
	block := BlockAddr(addr)
	base := c.set(block) * c.ways
	for w := uint32(0); w < c.ways; w++ {
		if c.tags[base+w] == block {
			return true
		}
	}
	return false
}

// Flush invalidates all blocks and clears statistics. Policy state is NOT
// reset; construct a new policy for independent runs.
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = invalidTag
		c.dirty[i] = false
	}
	for i := range c.filled {
		c.filled[i] = 0
	}
	c.Stats = Stats{}
}
