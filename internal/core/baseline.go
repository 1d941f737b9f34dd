package core

import (
	"doppelganger/internal/approx"
	"doppelganger/internal/cache"
	"doppelganger/internal/faults"
	"doppelganger/internal/memdata"
)

// Baseline is the conventional 2 MB inclusive LLC the paper evaluates
// against (Table 1). It also serves, at 1 MB, as the precise half of the
// split organization.
type Baseline struct {
	arr   *cache.Cache
	store *memdata.Store
	ann   *approx.Annotations // used only to label Snapshot blocks
	inj   *faults.Injector
	eff   Effects // scratch, returned by operations (valid until the next op)
}

// NewBaseline builds a conventional LLC over the given backing store.
// Annotations may be nil; they only label snapshot blocks for the storage
// analyses.
func NewBaseline(cfg cache.Config, store *memdata.Store, ann *approx.Annotations) *Baseline {
	return &Baseline{arr: cache.New(cfg), store: store, ann: ann}
}

// Array exposes the underlying set-associative array (for stats).
func (b *Baseline) Array() *cache.Cache { return b.arr }

// Read implements LLC.
func (b *Baseline) Read(addr memdata.Addr) (memdata.Block, *Effects) {
	eff := &b.eff
	eff.reset()
	eff.PTagReads = 1
	if l := b.arr.Lookup(addr); l != nil {
		eff.Hit = true
		eff.PDataReads = 1
		return l.Data, eff
	}
	// Miss: fetch from memory, install, evict as needed.
	data := *b.store.Block(addr)
	if b.inj != nil {
		b.inj.CorruptBlock(faults.DRAM, &data)
	}
	eff.MemReads = 1
	f := b.arr.Victim(addr)
	if b.arr.Valid(f) {
		victim := b.arr.At(f)
		eff.Evicted = append(eff.Evicted, Eviction{Addr: victim.Addr, Dirty: victim.Dirty})
		if victim.Dirty {
			b.store.WriteBlock(victim.Addr, &victim.Data)
			eff.MemWrites = 1
		}
	}
	b.arr.Install(f, addr, &data)
	eff.PDataReads = 1 // fill write counted as a data-array access
	eff.PDataWrites = 1
	return data, eff
}

// WriteBack implements LLC: a dirty block arriving from a private L2.
func (b *Baseline) WriteBack(addr memdata.Addr, data *memdata.Block) *Effects {
	eff := &b.eff
	eff.reset()
	eff.PTagReads = 1
	if l := b.arr.Lookup(addr); l != nil {
		eff.Hit = true
		l.Data = *data
		l.Dirty = true
		eff.PDataWrites = 1
		return eff
	}
	// Non-inclusive corner (should not occur with proper back-invalidation):
	// write memory directly.
	b.store.WriteBlock(addr, data)
	eff.MemWrites = 1
	return eff
}

// EvictFor implements LLC.
func (b *Baseline) EvictFor(addr memdata.Addr) *Effects {
	eff := &b.eff
	eff.reset()
	eff.PTagReads = 1
	if old, ok := b.arr.Invalidate(addr); ok {
		eff.Evicted = append(eff.Evicted, Eviction{Addr: old.Addr, Dirty: old.Dirty})
		if old.Dirty {
			b.store.WriteBlock(old.Addr, &old.Data)
			eff.MemWrites = 1
		}
	}
	return eff
}

// Contains implements LLC.
func (b *Baseline) Contains(addr memdata.Addr) bool { return b.arr.Probe(addr) != nil }

// Snapshot implements LLC.
func (b *Baseline) Snapshot() []SnapshotBlock {
	var out []SnapshotBlock
	b.arr.ForEachValid(func(l *cache.Line) {
		out = append(out, SnapshotBlock{Addr: l.Addr, Data: l.Data, Region: b.ann.Lookup(l.Addr)})
	})
	return out
}

// TagEntries implements LLC.
func (b *Baseline) TagEntries() int { return b.arr.ValidCount() }

// DataBlocks implements LLC.
func (b *Baseline) DataBlocks() int { return b.arr.ValidCount() }
