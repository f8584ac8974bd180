package cache

import (
	"bytes"
	"testing"
	"testing/quick"

	"optanestudy/internal/mem"
	"optanestudy/internal/sim"
)

func small(lines int) *LLC {
	cfg := DefaultConfig()
	cfg.Lines = lines
	return New(cfg)
}

func TestLLCInsertProbe(t *testing.T) {
	c := small(16)
	if c.Present(0) {
		t.Fatal("empty cache claims presence")
	}
	if _, ev := c.Insert(0); ev {
		t.Fatal("eviction from empty cache")
	}
	if !c.Present(0) || c.Dirty(0) {
		t.Fatal("inserted line missing or dirty")
	}
	// Duplicate insert is a no-op.
	if _, ev := c.Insert(0); ev {
		t.Fatal("duplicate insert evicted")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestLLCCapacityEviction(t *testing.T) {
	c := small(16)
	evictions := 0
	for i := int64(0); i < 64; i++ {
		if _, ev := c.Insert(i * mem.CacheLine); ev {
			evictions++
		}
	}
	if c.Len() != 16 {
		t.Fatalf("len = %d, want capacity 16", c.Len())
	}
	if evictions != 48 {
		t.Fatalf("evictions = %d, want 48", evictions)
	}
}

func TestLLCDirtyVictimCarriesData(t *testing.T) {
	c := small(16)
	payload := bytes.Repeat([]byte{0xAB}, 16)
	c.MarkDirty(0, 8, payload)
	// Fill to force eviction of line 0 eventually.
	sawDirtyVictim := false
	for i := int64(1); i < 200; i++ {
		v, ev := c.Insert(i * mem.CacheLine)
		if ev && v.Addr == 0 {
			if !v.Dirty {
				t.Fatal("line 0 evicted clean")
			}
			if !bytes.Equal(v.Data[8:24], payload) {
				t.Fatal("victim data lost")
			}
			sawDirtyVictim = true
			break
		}
	}
	if !sawDirtyVictim {
		t.Fatal("dirty line never evicted (random replacement should hit it)")
	}
}

func TestLLCWriteBack(t *testing.T) {
	c := small(16)
	c.MarkDirty(64, 0, []byte{1, 2, 3})
	data, mask, dirty := c.WriteBack(64)
	if !dirty || data[0] != 1 {
		t.Fatal("writeback lost data")
	}
	if mask != 0b111 {
		t.Fatalf("mask = %b, want low 3 bits", mask)
	}
	if c.Dirty(64) {
		t.Fatal("line still dirty after writeback")
	}
	if !c.Present(64) {
		t.Fatal("clwb must keep the line resident")
	}
	if _, _, dirty := c.WriteBack(64); dirty {
		t.Fatal("second writeback of clean line")
	}
	// After write-back, durable data is authoritative: overlay dropped.
	if d, _ := c.Data(64); d != nil {
		t.Fatal("overlay kept after writeback")
	}
}

func TestLLCEvict(t *testing.T) {
	c := small(16)
	c.MarkDirty(128, 2, []byte{9})
	data, mask, dirty := c.Evict(128)
	if !dirty || data[2] != 9 {
		t.Fatal("evict lost data")
	}
	if mask != 1<<2 {
		t.Fatalf("mask = %b", mask)
	}
	if c.Present(128) {
		t.Fatal("clflush must remove the line")
	}
	if _, _, dirty := c.Evict(128); dirty {
		t.Fatal("double evict reported dirty")
	}
}

func TestLLCDropAll(t *testing.T) {
	c := small(32)
	for i := int64(0); i < 10; i++ {
		c.MarkDirty(i*mem.CacheLine, 0, nil)
	}
	c.Insert(10 * mem.CacheLine)
	if lost := c.DropAll(); lost != 10 {
		t.Fatalf("lost = %d, want 10 dirty lines", lost)
	}
	if c.Len() != 0 {
		t.Fatal("cache not empty after crash")
	}
}

// Property: the slot index stays consistent with the slot table under
// random operations, and capacity is never exceeded.
func TestLLCIndexInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		c := small(32)
		r := sim.NewRNG(seed)
		for i := 0; i < 2000; i++ {
			addr := r.Int63n(128) * mem.CacheLine
			switch r.Intn(4) {
			case 0:
				c.Insert(addr)
			case 1:
				c.MarkDirty(addr, 0, nil)
			case 2:
				c.WriteBack(addr)
			case 3:
				c.Evict(addr)
			}
			if c.Len() > 32 || c.idx.Len() != c.Len() {
				return false
			}
		}
		for i := 0; i < c.Len(); i++ {
			a := c.slot(i).addr
			if j, ok := c.idx.Get(a); !ok || int(j) != i || !c.Present(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// refLLC is the LLC as it was before the slot table: a line map plus a
// key slice with a position map. It is kept as the oracle for
// TestLLCMatchesReference, which pins that the slot table picks the same
// victims draw for draw.
type refLLC struct {
	cfg   Config
	rng   *sim.RNG
	lines map[int64]*refLine
	keys  []int64
	pos   map[int64]int
}

type refLine struct {
	dirty bool
	data  []byte
	mask  uint64
}

func newRef(cfg Config) *refLLC {
	return &refLLC{
		cfg:   cfg,
		rng:   sim.NewRNG(cfg.Seed),
		lines: make(map[int64]*refLine),
		pos:   make(map[int64]int),
	}
}

func (c *refLLC) removeKey(addr int64) {
	i := c.pos[addr]
	last := len(c.keys) - 1
	c.keys[i] = c.keys[last]
	c.pos[c.keys[i]] = i
	c.keys = c.keys[:last]
	delete(c.pos, addr)
}

func (c *refLLC) Insert(addr int64) (Victim, bool) {
	if _, ok := c.lines[addr]; ok {
		return Victim{}, false
	}
	var v Victim
	evicted := false
	if len(c.lines) >= c.cfg.Lines {
		vaddr := c.keys[c.rng.Intn(len(c.keys))]
		vl := c.lines[vaddr]
		v = Victim{Addr: vaddr, Dirty: vl.dirty, Data: vl.data, Mask: vl.mask}
		delete(c.lines, vaddr)
		c.removeKey(vaddr)
		evicted = true
	}
	c.lines[addr] = &refLine{}
	c.pos[addr] = len(c.keys)
	c.keys = append(c.keys, addr)
	return v, evicted
}

func (c *refLLC) MarkDirty(addr int64, off int, data []byte) (Victim, bool) {
	v, evicted := c.Insert(addr)
	l := c.lines[addr]
	l.dirty = true
	if data != nil {
		if l.data == nil {
			l.data = make([]byte, mem.CacheLine)
		}
		copy(l.data[off:], data)
		for i := 0; i < len(data); i++ {
			l.mask |= 1 << uint(off+i)
		}
	}
	return v, evicted
}

func (c *refLLC) WriteBack(addr int64) ([]byte, uint64, bool) {
	l, ok := c.lines[addr]
	if !ok || !l.dirty {
		return nil, 0, false
	}
	data, mask := l.data, l.mask
	l.dirty = false
	l.data, l.mask = nil, 0
	return data, mask, true
}

func (c *refLLC) Evict(addr int64) ([]byte, uint64, bool) {
	l, ok := c.lines[addr]
	if !ok {
		return nil, 0, false
	}
	delete(c.lines, addr)
	c.removeKey(addr)
	return l.data, l.mask, l.dirty
}

func (c *refLLC) DropAll() int {
	lost := 0
	for _, l := range c.lines {
		if l.dirty {
			lost++
		}
	}
	c.lines = make(map[int64]*refLine)
	c.keys = c.keys[:0]
	c.pos = make(map[int64]int)
	return lost
}

// TestLLCMatchesReference replays seeded random operation streams through
// the slot-table LLC and the reference map+keys LLC and requires identical
// victims and identical answers to every probe. Capacities include one
// that spans several slot pages with a partial last page.
func TestLLCMatchesReference(t *testing.T) {
	for _, lines := range []int{16, 37, 1<<pageShift + 300} {
		for seed := uint64(1); seed <= 6; seed++ {
			cfg := DefaultConfig()
			cfg.Lines = lines
			cfg.Seed = seed
			c, ref := New(cfg), newRef(cfg)
			r := sim.NewRNG(seed * 7919)
			span := int64(lines) * 3
			for op := 0; op < 20000; op++ {
				addr := r.Int63n(span) * mem.CacheLine
				var got, want Victim
				var gev, wev bool
				switch k := r.Intn(100); {
				case k < 40:
					got, gev = c.Insert(addr)
					want, wev = ref.Insert(addr)
				case k < 75:
					var data []byte
					off := r.Intn(mem.CacheLine)
					if r.Intn(2) == 0 {
						data = make([]byte, 1+r.Intn(mem.CacheLine-off))
						for i := range data {
							data[i] = byte(r.Intn(256))
						}
					}
					got, gev = c.MarkDirty(addr, off, data)
					want, wev = ref.MarkDirty(addr, off, data)
				case k < 88:
					gd, gm, gdirty := c.WriteBack(addr)
					wd, wm, wdirty := ref.WriteBack(addr)
					got, gev = Victim{Addr: addr, Dirty: gdirty, Data: gd, Mask: gm}, gdirty
					want, wev = Victim{Addr: addr, Dirty: wdirty, Data: wd, Mask: wm}, wdirty
				case k < 99:
					gd, gm, gdirty := c.Evict(addr)
					wd, wm, wdirty := ref.Evict(addr)
					got, gev = Victim{Addr: addr, Dirty: gdirty, Data: gd, Mask: gm}, gdirty
					want, wev = Victim{Addr: addr, Dirty: wdirty, Data: wd, Mask: wm}, wdirty
				default:
					if g, w := c.DropAll(), ref.DropAll(); g != w {
						t.Fatalf("lines=%d seed=%d op %d: DropAll lost %d, reference %d", lines, seed, op, g, w)
					}
				}
				if gev != wev || got.Addr != want.Addr || got.Dirty != want.Dirty ||
					got.Mask != want.Mask || !bytes.Equal(got.Data, want.Data) {
					t.Fatalf("lines=%d seed=%d op %d: victim %+v/%v, reference %+v/%v", lines, seed, op, got, gev, want, wev)
				}
				probe := r.Int63n(span) * mem.CacheLine
				for _, a := range []int64{addr, probe} {
					_, wok := ref.lines[a]
					gd, gm := c.Data(a)
					var wd []byte
					var wm uint64
					if l, ok := ref.lines[a]; ok {
						wd, wm = l.data, l.mask
					}
					if c.Present(a) != wok || c.Dirty(a) != (wok && ref.lines[a].dirty) ||
						gm != wm || !bytes.Equal(gd, wd) {
						t.Fatalf("lines=%d seed=%d op %d: probe %#x diverges from reference", lines, seed, op, a)
					}
				}
				if c.Len() != len(ref.lines) {
					t.Fatalf("lines=%d seed=%d op %d: len %d, reference %d", lines, seed, op, c.Len(), len(ref.lines))
				}
			}
		}
	}
}

// BenchmarkLLCInsertMarkDirty measures the LLC's hot path at capacity: a
// tracked store to a random line of a working set twice the cache, so
// about half the stores miss and evict.
func BenchmarkLLCInsertMarkDirty(b *testing.B) {
	c := small(1 << 14)
	r := sim.NewRNG(1)
	addrs := make([]int64, 1<<16)
	for i := range addrs {
		addrs[i] = r.Int63n(1<<15) * mem.CacheLine
	}
	payload := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i&(len(addrs)-1)]
		if i&1 == 0 {
			c.Insert(a)
		} else {
			c.MarkDirty(a, 0, payload)
		}
	}
}

func TestWCBufferCompletesLine(t *testing.T) {
	w := NewWCBuffer()
	_, _, ok := w.Write(0, make([]byte, 32))
	if ok {
		t.Fatal("half-filled line flushed early")
	}
	addr, data, ok := w.Write(32, bytes.Repeat([]byte{7}, 32))
	if !ok || addr != 0 {
		t.Fatal("completed line not flushed")
	}
	if data[32] != 7 || len(data) != 64 {
		t.Fatal("flushed data wrong")
	}
	if w.Pending() != 0 {
		t.Fatal("pending after flush")
	}
}

func TestWCBufferFenceFlush(t *testing.T) {
	w := NewWCBuffer()
	w.Write(0, make([]byte, 8))
	w.Write(128, make([]byte, 8))
	var flushed []int64
	w.Flush(func(addr int64, data []byte, mask uint64) {
		flushed = append(flushed, addr)
		if mask == fullMask {
			t.Error("partial line reported full mask")
		}
	})
	if len(flushed) != 2 || flushed[0] != 0 || flushed[1] != 128 {
		t.Fatalf("flush order = %v", flushed)
	}
	if w.Pending() != 0 {
		t.Fatal("pending after fence")
	}
}

func TestWCBufferDrop(t *testing.T) {
	w := NewWCBuffer()
	w.Write(0, make([]byte, 8))
	w.Write(64, make([]byte, 8))
	if n := w.Drop(); n != 2 {
		t.Fatalf("dropped = %d", n)
	}
	if w.Pending() != 0 {
		t.Fatal("pending after drop")
	}
}

func TestWCBufferUnalignedSpans(t *testing.T) {
	w := NewWCBuffer()
	// Bytes 60..63 of line 0 — mask bits 60-63.
	_, _, ok := w.Write(60, []byte{1, 2, 3, 4})
	if ok {
		t.Fatal("partial flush")
	}
	// Complete the rest of line 0.
	addr, data, ok := w.Write(0, make([]byte, 60))
	if !ok || addr != 0 {
		t.Fatal("line not completed")
	}
	if data[60] != 1 || data[63] != 4 {
		t.Fatal("tail bytes lost")
	}
}

// Posted and flushed lines are reused by later fills: a reused line must
// start with no mask and zero data, and a steady stream of sub-line
// stores must not allocate.
func TestWCBufferReusesLines(t *testing.T) {
	w := NewWCBuffer()
	w.Write(0, bytes.Repeat([]byte{9}, 64-8))
	w.Write(64*5, bytes.Repeat([]byte{9}, 8))
	w.Write(64-8, bytes.Repeat([]byte{9}, 8)) // completes line 0
	w.Flush(func(int64, []byte, uint64) {})
	w.Write(128+4, []byte{1, 2})
	w.Write(192, []byte{3})
	var got []uint64
	w.Flush(func(addr int64, data []byte, mask uint64) {
		got = append(got, mask)
		for i, b := range data {
			if mask&(1<<uint(i)) == 0 && b != 0 {
				t.Errorf("line %d: stale byte %d = %d outside the mask", addr, i, b)
			}
		}
	})
	if len(got) != 2 || got[0] != 0b11<<4 || got[1] != 1 {
		t.Fatalf("flushed masks = %b, want [110000 1]", got)
	}
	half := make([]byte, 32)
	addr := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		w.Write(addr, half)
		w.Write(addr+64+32, half)
		if _, _, ok := w.Write(addr+32, half); !ok {
			t.Fatal("line not completed")
		}
		w.Flush(func(int64, []byte, uint64) {})
		addr += 128
	})
	if allocs != 0 {
		t.Fatalf("steady sub-line stores allocate %.1f per run, want 0", allocs)
	}
}
