// Package cache models the CPU cache hierarchy as seen by persistent
// memory: a last-level cache tracking clean/dirty 64 B lines with random
// replacement, and per-thread write-combining buffers for non-temporal
// stores.
//
// Two properties matter for the study: dirty lines are *not* persistent
// (the ADR domain stops at the iMC), and natural evictions leave the cache
// in an order uncorrelated with program order — which is why un-flushed
// store streams reach the DIMMs scrambled and destroy write combining
// (Section 5.2).
package cache

import (
	"slices"

	"optanestudy/internal/mem"
	"optanestudy/internal/sim"
)

// Config parameterizes the LLC model.
type Config struct {
	// Lines is the capacity in 64 B cache lines.
	Lines int
	// HitLatency is the load-to-use time for an LLC hit.
	HitLatency sim.Time
	// Seed feeds the replacement RNG.
	Seed uint64
}

// DefaultConfig returns the calibrated LLC: 12 MB effective capacity (the
// single-thread share of a Cascade Lake LLC) and ~20 ns hits.
func DefaultConfig() Config {
	return Config{
		Lines:      12 << 20 / mem.CacheLine,
		HitLatency: 20 * sim.Nanosecond,
		Seed:       0x11CC,
	}
}

// Victim describes an evicted line.
type Victim struct {
	Addr  int64
	Dirty bool
	Data  []byte // overlay contents if the line carried data, else nil
	Mask  uint64 // bitmask of valid overlay bytes
}

// LLC is a set of resident lines with random replacement. Addresses are
// global physical line addresses.
//
// Resident lines live in a slot table: idx maps an address to its slot, and
// slots 0..n-1 hold the lines in insertion order with swap-remove on
// eviction, so the replacement draw rng.Intn(n) indexes the table directly.
// Slots are stored in pages allocated as the cache fills, so a large LLC
// never re-copies its slots while warming up (see grow).
type LLC struct {
	cfg   Config
	rng   *sim.RNG
	idx   mem.Table[int32]
	pages [][]line
	n     int
}

type line struct {
	addr  int64
	dirty bool
	data  *[mem.CacheLine]byte // lazily allocated overlay for tracked stores
	mask  uint64               // which overlay bytes hold store data (coherence:
	// only these bytes may be written back; the rest belong to durable
	// storage or other writers)
}

// overlay returns the line's overlay bytes, or nil if it has none.
func (l *line) overlay() []byte {
	if l.data == nil {
		return nil
	}
	return l.data[:]
}

// Slot pages hold 1<<pageShift lines (8 KiB of slots).
const (
	pageShift = 8
	pageMask  = 1<<pageShift - 1
)

// New returns an empty LLC.
func New(cfg Config) *LLC {
	if cfg.Lines < 16 {
		cfg.Lines = 16
	}
	return &LLC{cfg: cfg, rng: sim.NewRNG(cfg.Seed)}
}

// HitLatency returns the configured hit latency.
func (c *LLC) HitLatency() sim.Time { return c.cfg.HitLatency }

// Len returns the number of resident lines.
func (c *LLC) Len() int { return c.n }

func (c *LLC) slot(i int) *line {
	return &c.pages[i>>pageShift][i&pageMask]
}

// grow makes sure slot c.n exists. Pages are allocated whole (the last one
// sized to the remaining capacity), so a filling LLC never re-copies its
// slots.
func (c *LLC) grow() {
	if pg := c.n >> pageShift; pg == len(c.pages) {
		c.pages = append(c.pages, make([]line, min(1<<pageShift, c.cfg.Lines-pg<<pageShift)))
	}
}

// lookup returns addr's resident line, or nil.
func (c *LLC) lookup(addr int64) *line {
	if i, ok := c.idx.Get(addr); ok {
		return c.slot(int(i))
	}
	return nil
}

// Present reports whether addr's line is resident.
func (c *LLC) Present(addr int64) bool {
	_, ok := c.idx.Get(addr)
	return ok
}

// Dirty reports whether addr's line is resident and dirty.
func (c *LLC) Dirty(addr int64) bool {
	l := c.lookup(addr)
	return l != nil && l.dirty
}

// Data returns the overlay bytes and validity mask for a resident line.
func (c *LLC) Data(addr int64) ([]byte, uint64) {
	if l := c.lookup(addr); l != nil {
		return l.overlay(), l.mask
	}
	return nil, 0
}

// remove swap-removes slot i: the last slot moves into i.
func (c *LLC) remove(i int) {
	addr := c.slot(i).addr
	last := c.n - 1
	moved := *c.slot(last)
	*c.slot(i) = moved
	*c.slot(last) = line{}
	c.idx.Put(moved.addr, int32(i))
	c.idx.Delete(addr)
	c.n = last
}

// insert makes addr resident and returns its line plus the victim if the
// insertion evicted one.
func (c *LLC) insert(addr int64) (*line, Victim, bool) {
	if l := c.lookup(addr); l != nil {
		return l, Victim{}, false
	}
	var v Victim
	evicted := false
	if c.n >= c.cfg.Lines {
		i := c.rng.Intn(c.n)
		vl := c.slot(i)
		v = Victim{Addr: vl.addr, Dirty: vl.dirty, Data: vl.overlay(), Mask: vl.mask}
		c.remove(i)
		evicted = true
	}
	c.grow()
	l := c.slot(c.n)
	*l = line{addr: addr}
	c.idx.Put(addr, int32(c.n))
	c.n++
	return l, v, evicted
}

// Insert makes addr resident (clean unless marked dirty afterwards) and
// returns the victim if the insertion evicted a line.
func (c *LLC) Insert(addr int64) (Victim, bool) {
	_, v, evicted := c.insert(addr)
	return v, evicted
}

// MarkDirty sets the line dirty, inserting it if absent (the caller is
// responsible for any RFO timing). data, when non-nil, is copied into the
// line's overlay at byte offset off within the line and the corresponding
// mask bits are set.
func (c *LLC) MarkDirty(addr int64, off int, data []byte) (Victim, bool) {
	l, v, evicted := c.insert(addr)
	l.dirty = true
	if data != nil {
		if l.data == nil {
			l.data = new([mem.CacheLine]byte)
		}
		copy(l.data[off:], data)
		for i := 0; i < len(data); i++ {
			l.mask |= 1 << uint(off+i)
		}
	}
	return v, evicted
}

// WriteBack clears the line's dirty bit and overlay, returning the overlay
// data, its byte mask, and whether the line was dirty. The line stays
// resident (clwb semantics); after write-back the durable copy is
// authoritative, so the overlay is dropped.
func (c *LLC) WriteBack(addr int64) ([]byte, uint64, bool) {
	l := c.lookup(addr)
	if l == nil || !l.dirty {
		return nil, 0, false
	}
	data, mask := l.overlay(), l.mask
	l.dirty = false
	l.data, l.mask = nil, 0
	return data, mask, true
}

// Evict removes the line (clflush/clflushopt semantics), returning its
// overlay data, mask, and whether it was dirty.
func (c *LLC) Evict(addr int64) ([]byte, uint64, bool) {
	i, ok := c.idx.Get(addr)
	if !ok {
		return nil, 0, false
	}
	l := *c.slot(int(i))
	c.remove(int(i))
	return l.overlay(), l.mask, l.dirty
}

// drain empties the cache, calling fn on every dirty line in slot order,
// and returns how many dirty lines there were. Slots at n and above are
// already zero, so only the live ones are cleared.
func (c *LLC) drain(fn func(l *line)) int {
	dirty := 0
	for i := 0; i < c.n; i++ {
		l := c.slot(i)
		if l.dirty {
			dirty++
			fn(l)
		}
		*l = line{}
	}
	c.idx.Clear()
	c.n = 0
	return dirty
}

// DropAll empties the cache, discarding dirty data — the volatile half of a
// crash. It returns how many dirty lines were lost.
func (c *LLC) DropAll() int {
	return c.drain(func(*line) {})
}

// FlushAll empties the cache, handing every dirty line's overlay to fn in
// slot order — the eADR crash path, where residual energy drains the caches
// to the DIMMs. It returns how many dirty lines were flushed.
func (c *LLC) FlushAll(fn func(addr int64, data []byte, mask uint64)) int {
	return c.drain(func(l *line) {
		if l.data != nil {
			fn(l.addr, l.data[:], l.mask)
		}
	})
}

// WCBuffer is one thread's write-combining buffer set for non-temporal
// stores: partially-filled 64 B lines awaiting completion or a fence.
// Posted lines go on a free list and are reused by later fills, so a
// steady stream of partial stores allocates nothing.
type WCBuffer struct {
	pending mem.Table[*wcLine] // by line address
	order   []*wcLine          // fill order
	free    []*wcLine
}

type wcLine struct {
	addr int64
	mask uint64 // bitmask of written bytes
	data [mem.CacheLine]byte
}

// NewWCBuffer returns an empty write-combining buffer.
func NewWCBuffer() *WCBuffer { return &WCBuffer{} }

// fullMask is the mask of a completely written 64 B line.
const fullMask = ^uint64(0)

// Write records sub-line non-temporal stores. It returns the line address
// and data if the line is now complete and must be posted, with ok=true.
// The returned data is the buffer's own line storage, valid until the next
// call on w. Complete 64 B stores should bypass the buffer entirely.
func (w *WCBuffer) Write(addr int64, data []byte) (flushAddr int64, flushData []byte, ok bool) {
	lineAddr := mem.LineAddr(addr)
	off := int(addr - lineAddr)
	l, _ := w.pending.Get(lineAddr)
	if l == nil {
		if n := len(w.free); n > 0 {
			l = w.free[n-1]
			w.free = w.free[:n-1]
			*l = wcLine{addr: lineAddr}
		} else {
			l = &wcLine{addr: lineAddr}
		}
		w.pending.Put(lineAddr, l)
		w.order = append(w.order, l)
	}
	n := len(data)
	if data != nil {
		copy(l.data[off:], data)
	}
	for i := 0; i < n; i++ {
		l.mask |= 1 << uint(off+i)
	}
	if l.mask == fullMask {
		w.pending.Delete(lineAddr)
		i := slices.Index(w.order, l)
		w.order = slices.Delete(w.order, i, i+1)
		w.free = append(w.free, l)
		return lineAddr, l.data[:], true
	}
	return 0, nil, false
}

// Flush drains all partial lines in fill order (an sfence does this),
// invoking post for each.
func (w *WCBuffer) Flush(post func(addr int64, data []byte, mask uint64)) {
	for _, l := range w.order {
		post(l.addr, l.data[:], l.mask)
	}
	w.Drop()
}

// Drop discards all partial lines (crash semantics). Returns the count lost.
func (w *WCBuffer) Drop() int {
	n := w.pending.Len()
	w.pending.Clear()
	w.free = append(w.free, w.order...)
	w.order = w.order[:0]
	return n
}

// Pending returns the number of partially-filled lines.
func (w *WCBuffer) Pending() int { return w.pending.Len() }
