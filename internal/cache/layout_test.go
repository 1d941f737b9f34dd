package cache

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"doppelganger/internal/faults"
	"doppelganger/internal/memdata"
)

// TestVictimOrder pins the replacement choice: the first invalid way of the
// set wins even when a later way is also free or a valid way is older;
// among valid ways the first least-recently-used one wins (a strict <, so
// a tie keeps the lower way).
func TestVictimOrder(t *testing.T) {
	c := New(Config{Name: "v", SizeBytes: 4 * 4 * memdata.BlockSize, Ways: 4}) // 4 sets × 4 ways
	const set = 2
	base := set * 4 // frames are numbered set-major
	addr := func(tag int) memdata.Addr { return memdata.Addr(tag<<8 | set<<6) }
	for w := 0; w < 4; w++ {
		if f := c.Victim(addr(w)); f != base+w {
			t.Fatalf("fill %d: victim frame %d, want the first invalid way %d", w, f, base+w)
		}
		c.Install(c.Victim(addr(w)), addr(w), nil)
	}
	c.Invalidate(addr(1))
	c.Invalidate(addr(3))
	if f := c.Victim(addr(9)); f != base+1 || c.Valid(f) {
		t.Fatalf("victim frame %d (valid %v), want invalid way 1 (frame %d)", f, c.Valid(f), base+1)
	}
	c.Install(base+1, addr(1), nil)
	c.Install(base+3, addr(3), nil)
	// Touch order is now ways 0, 2, 1, 3: way 0 is LRU until a hit.
	if f := c.Victim(addr(9)); f != base {
		t.Fatalf("victim frame %d, want LRU way 0 (frame %d)", f, base)
	}
	c.Lookup(addr(0))
	if f := c.Victim(addr(9)); f != base+2 {
		t.Fatalf("victim frame %d, want LRU way 2 (frame %d)", f, base+2)
	}
	c.lru[base+1], c.lru[base+3] = 1, 1
	if f := c.Victim(addr(9)); f != base+1 {
		t.Fatalf("tied LRU ways 1 and 3: victim frame %d, want the first (%d)", f, base+1)
	}
	c.lru[base] = 1
	if f := c.Victim(addr(9)); f != base {
		t.Fatalf("tied LRU ways 0, 1 and 3: victim frame %d, want the first (%d)", f, base)
	}
}

// TestFaultSitesPinned runs a rate-1 tag+data injector over a scripted
// install/lookup sequence and pins, after every hit, the stored tag (the
// address the line now answers for) and the stored data bytes. Every hit
// draws data first, then tag, and flips one bit of each, so any change to
// where a fault lands, or in which order, moves a literal here. The
// literals do not depend on the array's internal layout.
func TestFaultSitesPinned(t *testing.T) {
	c := tiny() // 4 sets × 2 ways: tag = addr >> 8
	inj := faults.New(faults.Config{Seed: 5, Rate: 1})
	c.AttachFaults(inj, faults.LLCTag, faults.LLCData)
	fill := func(a memdata.Addr, seed byte) {
		var b memdata.Block
		for i := range b {
			b[i] = seed + byte(i)
		}
		c.Install(c.Victim(a), a, &b)
	}
	steps := []struct {
		at   memdata.Addr // where the line answers before the hit
		tag  uint32       // stored tag after the hit
		data string       // stored block after the hit
	}{
		{0x00000, 0x200, "101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f405142434445464748494a4b4c4d4e4f"},
		{0x00100, 0x20001, "808182838485868788898a8b8cad8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf"},
		{0x00040, 0x100000, "404142434445464748494a4b4c0d4e4f505152535455565758595a5b5c5d5e5f606162636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f"},
		{0x20000, 0x600, "101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f405142434445464748494a4b4c4d4f4f"},
		{0x2000100, 0x20201, "808182838485868788898a8b8cad8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcb9bebf"},
		{0x10000040, 0x100800, "404142434445464748494a4b4c0d4e4f505152535455565758595a5b5c5d5e5f60616a636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f"},
		{0x60000, 0x4600, "101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f3031b2333435363738393a3b3c3d3e3f405142434445464748494a4b4c4d4f4f"},
		{0x2020100, 0x20203, "808182838485868788898a8b8cad8e8f90919293b495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcb9bebf"},
		{0x10080040, 0x100808, "404142434c45464748494a4b4c0d4e4f505152535455565758595a5b5c5d5e5f60616a636465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f"},
		// After the fill of 0x200 below.
		{0x00200, 0x200002, "c0c1c2c3c4c5c6c7c8c9cacbcccdcecfd0d1d2d3d4d5d6d7d8d9dadbdcdddedfe0e1e2e3ece5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"},
	}
	fill(0x000, 0x10)
	fill(0x100, 0x80) // set 0, the other way
	fill(0x040, 0x40) // set 1
	for i, st := range steps {
		if i == 9 {
			// Set 0's LRU line is the one that answered at 0x60000 (it was
			// hit at step 6, its neighbour at step 7): the fill evicts it
			// wherever its corrupted tag points.
			fill(0x200, 0xc0)
			if c.Probe(0x460000) != nil || c.Probe(0x2020300) == nil {
				t.Fatal("fill into set 0 evicted the wrong way")
			}
		}
		l := c.Lookup(st.at)
		if l == nil {
			t.Fatalf("step %d: miss at %#x", i, st.at)
		}
		moved := memdata.Addr(st.tag<<8 | uint32(st.at)&0xc0)
		if c.Probe(moved) != l {
			t.Fatalf("step %d: the line hit at %#x does not answer for tag %#x after the hit", i, st.at, st.tag)
		}
		if got := hex.EncodeToString(l.Data[:]); got != st.data {
			t.Fatalf("step %d: data\n got %s\nwant %s", i, got, st.data)
		}
	}
	if s := inj.Stats(faults.LLCTag); s.Accesses != 10 || s.Faults != 10 {
		t.Errorf("tag draws %+v, want 10 accesses and 10 faults", s)
	}
}

// BenchmarkLookup times the array at the hierarchy's three geometries
// (Table 1: 16 KB 4-way L1, 128 KB 8-way L2, 2 MB 16-way LLC). "hit" looks
// up resident blocks in a shuffled order; "miss" streams blocks the array
// never holds, so every access is a miss, a Victim and an Install.
func BenchmarkLookup(b *testing.B) {
	for _, cfg := range []Config{
		{Name: "L1", SizeBytes: 16 << 10, Ways: 4},
		{Name: "L2", SizeBytes: 128 << 10, Ways: 8},
		{Name: "LLC", SizeBytes: 2 << 20, Ways: 16},
	} {
		resident := make([]memdata.Addr, cfg.Blocks())
		for i := range resident {
			resident[i] = memdata.Addr(i) * memdata.BlockSize
		}
		rand.New(rand.NewSource(1)).Shuffle(len(resident), func(i, j int) {
			resident[i], resident[j] = resident[j], resident[i]
		})
		mask := len(resident) - 1 // Blocks is a power of two
		name := fmt.Sprintf("%s-%dway", cfg.Name, cfg.Ways)
		b.Run(name+"/hit", func(b *testing.B) {
			c := New(cfg)
			for _, a := range resident {
				c.Install(c.Victim(a), a, nil)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.Lookup(resident[i&mask]) == nil {
					b.Fatal("resident block missed")
				}
			}
		})
		b.Run(name+"/miss", func(b *testing.B) {
			c := New(cfg)
			var data memdata.Block
			// A cyclic stream over 8× the capacity misses every time
			// under LRU.
			stream := 8*len(resident) - 1
			for i := 0; i < b.N; i++ {
				a := memdata.Addr(i&stream) * memdata.BlockSize
				if c.Lookup(a) != nil {
					b.Fatal("streamed block hit")
				}
				c.Install(c.Victim(a), a, &data)
			}
		})
	}
}
