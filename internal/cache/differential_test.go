package cache

import (
	"math/rand"
	"testing"
)

// refCache is the original scan-based set-associative LRU model, kept
// verbatim as the oracle for the O(1) Cache: per-access way scan for
// lookup and an age-stamp victim scan preferring invalid lines. The
// production Cache must reproduce its behavior exactly — same hit/miss
// outcomes, same victim choices (observable through write-back traffic)
// and same statistics.
type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	age   uint64
}

type refCache struct {
	cfg       Config
	lines     []refLine
	stamp     uint64
	stats     Stats
	lineShift uint
}

func newRefCache(cfg Config) *refCache {
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	return &refCache{
		cfg:       cfg,
		lines:     make([]refLine, cfg.Sets*cfg.Ways),
		lineShift: shift,
	}
}

func (c *refCache) Access(addr uint64, write bool) bool {
	lineAddr := addr >> c.lineShift
	c.stamp++
	set := int(lineAddr % uint64(c.cfg.Sets))
	tag := lineAddr / uint64(c.cfg.Sets)
	base := set * c.cfg.Ways

	for i := 0; i < c.cfg.Ways; i++ {
		ln := &c.lines[base+i]
		if ln.valid && ln.tag == tag {
			ln.age = c.stamp
			if write {
				ln.dirty = true
			}
			c.stats.Hits++
			return true
		}
	}

	victim := base
	for i := 1; i < c.cfg.Ways; i++ {
		v, cand := &c.lines[victim], &c.lines[base+i]
		if !cand.valid {
			victim = base + i
			break
		}
		if v.valid && cand.age < v.age {
			victim = base + i
		}
	}
	v := &c.lines[victim]
	if v.valid && v.dirty {
		c.stats.WritebackBytes += int64(c.cfg.LineBytes)
	}
	c.stats.Misses++
	c.stats.FillBytes += int64(c.cfg.LineBytes)
	*v = refLine{tag: tag, valid: true, dirty: write, age: c.stamp}
	return false
}

func (c *refCache) Flush() {
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			c.stats.WritebackBytes += int64(c.cfg.LineBytes)
		}
		c.lines[i] = refLine{}
	}
}

func (c *refCache) Invalidate() {
	for i := range c.lines {
		c.lines[i] = refLine{}
	}
}

// TestCacheMatchesReference drives the production cache and the
// reference scan model through long random access sequences over every
// geometry the pipeline uses (plus stress shapes) and demands identical
// outcomes and statistics after every operation.
func TestCacheMatchesReference(t *testing.T) {
	configs := []Config{
		{Ways: 64, Sets: 1, LineBytes: 256}, // z & color caches
		{Ways: 64, Sets: 1, LineBytes: 64},  // texture L0
		{Ways: 16, Sets: 16, LineBytes: 64}, // texture L1
		{Ways: 1, Sets: 8, LineBytes: 32},   // direct-mapped stress
		{Ways: 4, Sets: 3, LineBytes: 16},   // non-power-of-two sets
		{Ways: 2, Sets: 1, LineBytes: 64},   // tiny, eviction-heavy
		{Ways: 256, Sets: 1, LineBytes: 64}, // texl0-4x: churns the index
	}
	for _, cfg := range configs {
		t.Run(cfg.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(cfg.Size())))
			got := MustNew(cfg)
			want := newRefCache(cfg)
			// A small address universe forces plenty of conflict misses;
			// scale with capacity so sets overflow their ways.
			universe := uint64(cfg.Size()) * 4
			for op := 0; op < 200000; op++ {
				switch r := rng.Intn(100); {
				case r == 0:
					got.Flush()
					want.Flush()
				case r == 1:
					got.Invalidate()
					want.Invalidate()
				default:
					addr := rng.Uint64() % universe
					write := rng.Intn(3) == 0
					g := got.Access(addr, write)
					w := want.Access(addr, write)
					if g != w {
						t.Fatalf("op %d: Access(%#x, %v) = %v, reference %v",
							op, addr, write, g, w)
					}
				}
				if gs, ws := got.Stats(), want.stats; gs != ws {
					t.Fatalf("op %d: stats diverged: got %+v, reference %+v", op, gs, ws)
				}
			}
		})
	}
}

// FuzzCacheMatchesReference searches for a geometry and an operation
// stream on which the cache and the reference scan model disagree:
// 1-256 ways, set counts that need not be powers of two, line sizes 1 B
// to 256 B, and a read/write stream with interleaved Flush and
// Invalidate. The ops bytes are decoded three to an operation; a seeded
// random tail then churns the index long enough to exercise
// backward-shift deletion across wrapped probe runs.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add(uint8(63), uint8(0), uint8(6), int64(1), []byte{2, 0, 1, 3, 0, 2, 0, 0, 0})
	f.Add(uint8(255), uint8(0), uint8(6), int64(2), []byte{})
	f.Add(uint8(3), uint8(2), uint8(4), int64(3), []byte{3, 1, 7, 1, 0, 0, 2, 0, 7})
	f.Add(uint8(0), uint8(6), uint8(0), int64(4), []byte{5, 255, 255})
	f.Fuzz(func(t *testing.T, ways, sets, lineShift uint8, seed int64, ops []byte) {
		cfg := Config{Ways: int(ways) + 1, Sets: int(sets)%24 + 1, LineBytes: 1 << (lineShift % 9)}
		got := MustNew(cfg)
		want := newRefCache(cfg)
		lines := uint64(cfg.Ways * cfg.Sets)
		step := func(op int, kind byte, lineIdx uint64) {
			switch kind % 16 {
			case 0:
				got.Flush()
				want.Flush()
			case 1:
				got.Invalidate()
				want.Invalidate()
			default:
				// Four times the capacity in lines, plus an offset
				// inside the line.
				addr := (lineIdx%(lines*4))*uint64(cfg.LineBytes) + uint64(kind)%uint64(cfg.LineBytes)
				write := kind&1 == 1
				if g, w := got.Access(addr, write), want.Access(addr, write); g != w {
					t.Fatalf("%v op %d: Access(%#x, %v) = %v, reference %v", cfg, op, addr, write, g, w)
				}
			}
			if gs, ws := got.Stats(), want.stats; gs != ws {
				t.Fatalf("%v op %d: stats diverged: got %+v, reference %+v", cfg, op, gs, ws)
			}
		}
		for i := 0; i+2 < len(ops); i += 3 {
			step(i/3, ops[i], uint64(ops[i+1])<<8|uint64(ops[i+2]))
		}
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 2000; op++ {
			kind := byte(rng.Intn(256))
			if kind%16 < 2 && rng.Intn(8) != 0 {
				kind += 2 // flushes stay rare enough for the index to fill
			}
			step(len(ops)/3+op, kind, rng.Uint64())
		}
	})
}

// TestCacheRepeatAccessFastPath pins the MRU fast path: repeated
// accesses to one line must not disturb LRU order relative to the
// reference model.
func TestCacheRepeatAccessFastPath(t *testing.T) {
	cfg := Config{Ways: 2, Sets: 1, LineBytes: 64}
	got := MustNew(cfg)
	want := newRefCache(cfg)
	seq := []struct {
		addr  uint64
		write bool
	}{
		{0, false}, {64, false}, {64, false}, {64, true}, {0, false},
		{128, false}, // evicts 64 (LRU), not 0
		{64, false}, {0, false}, {128, false},
	}
	for i, s := range seq {
		if g, w := got.Access(s.addr, s.write), want.Access(s.addr, s.write); g != w {
			t.Fatalf("step %d: Access(%#x) = %v, reference %v", i, s.addr, g, w)
		}
	}
	if gs, ws := got.Stats(), want.stats; gs != ws {
		t.Fatalf("stats diverged: got %+v, reference %+v", gs, ws)
	}
}
