package platform

import (
	"fmt"

	"optanestudy/internal/cache"
	"optanestudy/internal/mem"
	"optanestudy/internal/sim"
	"optanestudy/internal/topology"
)

// MemCtx is one simulated thread's view of memory: it issues the
// persistence ISA (loads, stores, ntstores, flushes, fences) against
// namespaces, advancing its proc's simulated clock according to the
// platform model.
//
// Persistence semantics mirror the ADR platform: a store is durable once
// posted to a WPQ (flush or ntstore); data sitting dirty in the cache or in
// a write-combining buffer is volatile and lost on Crash.
type MemCtx struct {
	p      *Platform
	proc   *sim.Proc
	socket int
	wc     *cache.WCBuffer
	rng    *sim.RNG

	windows []*drainRing // by Platform.dimmIndex, allocated on first use

	pendingAck sim.Time
	hasPending bool

	loads    []sim.Time
	loadHead int
	loadMax  sim.Time

	// rfoDone tracks when a store-miss's ownership read completes per
	// line: a write-back of that line cannot be posted earlier (the store
	// retires only once the line arrives). This is why store+clwb to cold
	// lines inherits the device's read latency (Section 5.2).
	rfoDone mem.Table[sim.Time]
}

// drainRing caps the number of un-drained WPQ entries a thread may have on
// one DIMM (the paper's 256 B per-thread WPQ window). It is a fixed-size
// circular buffer: the hot postLine path reuses the same backing array
// instead of reslicing-and-appending a fresh slice per tracked write.
type drainRing struct {
	times []sim.Time // circular storage, sized to the window capacity
	head  int        // index of the oldest live entry
	n     int        // live entries
}

// push appends t. When the ring already holds capacity entries, the oldest
// is evicted and returned (the drain the caller must wait for); otherwise
// zero is returned.
func (r *drainRing) push(t sim.Time, capacity int) sim.Time {
	if len(r.times) != capacity {
		r.resize(capacity)
	}
	wait := sim.Time(0)
	if r.n == capacity {
		wait = r.times[r.head]
		r.head++
		if r.head == capacity {
			r.head = 0
		}
		r.n--
	}
	i := r.head + r.n
	if i >= capacity {
		i -= capacity
	}
	r.times[i] = t
	r.n++
	return wait
}

// setLast overwrites the most recently pushed entry.
func (r *drainRing) setLast(t sim.Time) {
	i := r.head + r.n - 1
	if i >= len(r.times) {
		i -= len(r.times)
	}
	r.times[i] = t
}

// resize re-sizes the storage (the window capacity is fixed per platform
// config, so this runs once per ring in practice), preserving live entries
// in order.
func (r *drainRing) resize(capacity int) {
	fresh := make([]sim.Time, capacity)
	keep := r.n
	if keep > capacity {
		keep = capacity
	}
	for i := 0; i < keep; i++ {
		// Drop the oldest entries first when shrinking.
		j := r.head + r.n - keep + i
		if len(r.times) > 0 {
			j %= len(r.times)
		}
		fresh[i] = r.times[j]
	}
	r.times, r.head, r.n = fresh, 0, keep
}

func (r *drainRing) reset() { r.head, r.n = 0, 0 }

// Proc returns the owning simulated thread.
func (c *MemCtx) Proc() *sim.Proc { return c.proc }

// Socket returns the context's home socket.
func (c *MemCtx) Socket() int { return c.socket }

func (c *MemCtx) llc() *cache.LLC { return c.p.llcs[c.socket] }

func (c *MemCtx) remote(ns *Namespace) bool { return ns.Socket != c.socket }

func (c *MemCtx) ackTime(xp, remote bool) sim.Time {
	ack := c.p.cfg.AcceptAckDRAM
	if xp {
		ack = c.p.cfg.AcceptAckXP
	}
	if remote {
		ack += 2 * c.p.cfg.UPI.HopLatency
	}
	return ack
}

// window returns the thread's WPQ window on the DIMM behind ns's channel
// position pos.
func (c *MemCtx) window(ns *Namespace, pos int) *drainRing {
	if c.windows == nil {
		c.windows = make([]*drainRing, c.p.dimmCount())
	}
	i := c.p.dimmIndex(ns, pos)
	w := c.windows[i]
	if w == nil {
		w = c.p.getRing()
		c.windows[i] = w
	}
	return w
}

// recycle returns the context's per-DIMM windows to the platform pool once
// its thread has finished; later threads reuse the ring storage instead of
// allocating fresh windows. Safe because procs run exclusively. The
// platform keeps every context for Crash, which needs only the
// write-combining buffer, so recycle also drops the finished proc and the
// thread's load and ownership-read bookkeeping.
func (c *MemCtx) recycle() {
	for _, w := range c.windows {
		if w != nil {
			w.reset()
			c.p.ringPool = append(c.p.ringPool, w)
		}
	}
	c.windows = nil
	c.proc = nil
	c.loads, c.loadHead, c.loadMax = nil, 0, 0
	c.rfoDone = mem.Table[sim.Time]{}
}

func (c *MemCtx) resetPending() {
	c.pendingAck, c.hasPending = 0, false
	for _, w := range c.windows {
		if w != nil {
			w.reset()
		}
	}
	c.loads = c.loads[:0]
	c.loadHead = 0
	c.loadMax = 0
}

func checkRange(ns *Namespace, off int64, size int) {
	if size < 0 || off < 0 || off+int64(size) > ns.Size {
		panic(fmt.Sprintf("platform: access [%d,+%d) outside namespace %q (size %d)",
			off, size, ns.Name, ns.Size))
	}
}

// ---- Loads ----

// loadSlot obtains an MLP slot, returning the (possibly delayed) issue time.
func (c *MemCtx) loadSlot(t sim.Time) sim.Time {
	outstanding := len(c.loads) - c.loadHead
	if outstanding >= c.p.cfg.MLP {
		oldest := c.loads[c.loadHead]
		c.loadHead++
		if c.loadHead > 1024 && c.loadHead*2 >= len(c.loads) {
			c.loads = append(c.loads[:0], c.loads[c.loadHead:]...)
			c.loadHead = 0
		}
		if oldest > t {
			t = oldest
		}
	}
	return t
}

// chunkLoad issues one 64 B load at time t; returns issue-done time and
// data-ready time.
func (c *MemCtx) chunkLoad(ns *Namespace, lineOff int64, t sim.Time) (sim.Time, sim.Time) {
	g := ns.GlobalAddr(lineOff)
	llc := c.llc()
	if llc.Present(g) {
		return t + c.p.cfg.ChunkIssue, t + llc.HitLatency()
	}
	t = c.loadSlot(t)
	pos, local := ns.Resolve(lineOff)
	ch, d := c.p.channelOf(ns, pos), c.p.dimmOf(ns, pos)
	start := t
	extra := sim.Time(0)
	if c.remote(ns) {
		_, granted := c.p.home[ns.Socket].acquire(t, false, ns.Media == topology.MediaXP)
		start = granted
		extra = 2 * c.p.cfg.UPI.HopLatency
	}
	done := ch.Read(start, d, local) + c.p.cfg.LoadOverhead + extra
	c.loads = append(c.loads, done)
	if done > c.loadMax {
		c.loadMax = done
	}
	if victim, ok := llc.Insert(g); ok && victim.Dirty {
		c.writebackVictim(t, victim)
	}
	return t + c.p.cfg.ChunkIssue, done
}

// Load performs a synchronous read of size bytes: the thread waits until
// all touched lines return (memcpy/pointer-chase semantics for single
// lines).
func (c *MemCtx) Load(ns *Namespace, off int64, size int) {
	checkRange(ns, off, size)
	t := c.proc.Now()
	var done sim.Time
	first := mem.LineAddr(off)
	for n := mem.LinesIn(off, size); n > 0; n-- {
		var d sim.Time
		t, d = c.chunkLoad(ns, first, t)
		if d > done {
			done = d
		}
		first += mem.CacheLine
	}
	if done > t {
		t = done
	}
	c.proc.AdvanceTo(t)
}

// LoadInto is Load plus a copy of the bytes into buf (overlay-coherent:
// dirty cached data wins over durable data).
func (c *MemCtx) LoadInto(ns *Namespace, off int64, buf []byte) {
	c.Load(ns, off, len(buf))
	c.Peek(ns, off, buf)
}

// Peek copies the current coherent contents (dirty cache overlay over
// durable data) without advancing simulated time. Use it when the timing
// of the copy has already been charged through Load or LoadStream.
func (c *MemCtx) Peek(ns *Namespace, off int64, buf []byte) {
	llc := c.llc()
	for i := 0; i < len(buf); {
		addr := off + int64(i)
		line := mem.LineAddr(addr)
		lo := int(addr - line)
		n := mem.CacheLine - lo
		if n > len(buf)-i {
			n = len(buf) - i
		}
		c.p.persist.Read(ns.GlobalAddr(addr), buf[i:i+n])
		if data, mask := llc.Data(ns.GlobalAddr(line)); data != nil {
			for j := 0; j < n; j++ {
				if mask&(1<<uint(lo+j)) != 0 {
					buf[i+j] = data[lo+j]
				}
			}
		}
		i += n
	}
}

// LoadStream issues reads pipelined without waiting for completion (bulk
// copy semantics); DrainLoads synchronizes.
func (c *MemCtx) LoadStream(ns *Namespace, off int64, size int) {
	checkRange(ns, off, size)
	t := c.proc.Now()
	first := mem.LineAddr(off)
	for n := mem.LinesIn(off, size); n > 0; n-- {
		t, _ = c.chunkLoad(ns, first, t)
		first += mem.CacheLine
	}
	c.proc.AdvanceTo(t)
}

// DrainLoads waits for all outstanding loads.
func (c *MemCtx) DrainLoads() {
	if c.loadMax > c.proc.Now() {
		c.proc.AdvanceTo(c.loadMax)
	}
	c.loads = c.loads[:0]
	c.loadHead = 0
}

// ---- Stores ----

// Store performs cached stores over [off, off+size). data, if non-nil,
// must be size bytes and is retained in the (volatile) cache overlay until
// flushed or evicted.
func (c *MemCtx) Store(ns *Namespace, off int64, size int, data []byte) {
	checkRange(ns, off, size)
	if data != nil && len(data) != size {
		panic("platform: Store data length mismatch")
	}
	t := c.proc.Now()
	llc := c.llc()
	for i := 0; i < size; {
		addr := off + int64(i)
		line := mem.LineAddr(addr)
		lo := int(addr - line)
		n := mem.CacheLine - lo
		if n > size-i {
			n = size - i
		}
		g := ns.GlobalAddr(line)
		if !llc.Present(g) {
			// RFO: fetch the line through the load pipeline; the thread
			// does not block on it but the read consumes device bandwidth.
			t = c.rfo(ns, line, t)
		}
		var chunk []byte
		if data != nil {
			chunk = data[i : i+n]
		}
		if victim, ok := llc.MarkDirty(g, lo, chunk); ok && victim.Dirty {
			c.writebackVictim(t, victim)
		}
		t += c.p.cfg.StoreIssue
		i += n
	}
	c.proc.AdvanceTo(t)
}

func (c *MemCtx) rfo(ns *Namespace, lineOff int64, t sim.Time) sim.Time {
	t = c.loadSlot(t)
	pos, local := ns.Resolve(lineOff)
	ch, d := c.p.channelOf(ns, pos), c.p.dimmOf(ns, pos)
	start := t
	if c.remote(ns) {
		_, start = c.p.home[ns.Socket].acquire(t, false, ns.Media == topology.MediaXP)
	}
	done := ch.Read(start, d, local) + c.p.cfg.LoadOverhead
	c.loads = append(c.loads, done)
	if done > c.loadMax {
		c.loadMax = done
	}
	if c.rfoDone.Len() > 8192 {
		c.rfoDone.Clear()
	}
	c.rfoDone.Put(ns.GlobalAddr(lineOff), done)
	return t
}

// writebackVictim posts a hardware eviction of a dirty line, persisting
// only the bytes the overlay actually holds.
func (c *MemCtx) writebackVictim(t sim.Time, victim cache.Victim) {
	ns := c.p.resolveGlobal(victim.Addr)
	if ns == nil {
		return
	}
	lineOff := victim.Addr - ns.Base
	c.postLine(ns, lineOff, nil, t, false)
	if c.p.cfg.TrackData && victim.Data != nil {
		c.persistMasked(victim.Addr, victim.Data, victim.Mask)
	}
}

// postLine enqueues one 64 B line write toward its DIMM. When tracked is
// true the post participates in fence ordering and the per-thread WPQ
// window (explicit flushes and ntstores); hardware evictions pass false.
// Returns the thread time after any window wait.
func (c *MemCtx) postLine(ns *Namespace, lineOff int64, data []byte, t sim.Time, tracked bool) sim.Time {
	pos, local := ns.Resolve(lineOff)
	ch, d := c.p.channelOf(ns, pos), c.p.dimmOf(ns, pos)
	xp := ns.Media == topology.MediaXP
	remote := c.remote(ns)
	var w *drainRing
	if tracked {
		w = c.window(ns, pos)
		if wait := w.push(0, c.p.cfg.StoreWindow); wait > t {
			t = wait
		}
	}
	postT := t
	if remote {
		_, granted := c.p.home[ns.Socket].acquire(t, true, xp)
		postT = granted + c.p.cfg.UPI.WriteOwnership
	}
	acc, drain := ch.PostWrite(postT, d, local)
	if tracked {
		w.setLast(drain)
		ack := acc + c.ackTime(xp, remote)
		if ack > c.pendingAck {
			c.pendingAck = ack
		}
		c.hasPending = true
	}
	if c.p.cfg.TrackData && data != nil {
		c.p.persist.Write(ns.GlobalAddr(lineOff), data)
	}
	return t
}

// ---- Flushes ----

func (c *MemCtx) flushRange(ns *Namespace, off int64, size int, issue sim.Time, evictLine bool) {
	checkRange(ns, off, size)
	t := c.proc.Now()
	llc := c.llc()
	first := mem.LineAddr(off)
	for n := mem.LinesIn(off, size); n > 0; n-- {
		g := ns.GlobalAddr(first)
		var data []byte
		var mask uint64
		var wasDirty bool
		if evictLine {
			data, mask, wasDirty = llc.Evict(g)
		} else {
			data, mask, wasDirty = llc.WriteBack(g)
		}
		t += issue
		if wasDirty {
			if done, ok := c.rfoDone.Get(g); ok {
				if done > t {
					t = done // the write-back waits for the store's RFO
				}
				c.rfoDone.Delete(g)
			}
			t = c.postLine(ns, first, nil, t, true)
			if c.p.cfg.TrackData && data != nil {
				c.persistMasked(g, data, mask)
			}
		}
		first += mem.CacheLine
	}
	c.proc.AdvanceTo(t)
}

// CLWB writes back (without evicting) every dirty line in the range.
func (c *MemCtx) CLWB(ns *Namespace, off int64, size int) {
	c.flushRange(ns, off, size, c.p.cfg.FlushIssue, false)
}

// CLFlushOpt writes back and evicts every line in the range (unordered
// flush).
func (c *MemCtx) CLFlushOpt(ns *Namespace, off int64, size int) {
	c.flushRange(ns, off, size, c.p.cfg.FlushIssue, true)
}

// CLFlush writes back and evicts with the legacy, more serializing cost.
func (c *MemCtx) CLFlush(ns *Namespace, off int64, size int) {
	c.flushRange(ns, off, size, c.p.cfg.CLFlushIssue, true)
}

// ---- Non-temporal stores ----

// NTStore bypasses the cache: full 64 B lines post directly toward the WPQ
// via write-combining buffers; partial lines linger in the WC buffer until
// completed or fenced.
func (c *MemCtx) NTStore(ns *Namespace, off int64, size int, data []byte) {
	checkRange(ns, off, size)
	if data != nil && len(data) != size {
		panic("platform: NTStore data length mismatch")
	}
	t := c.proc.Now()
	llc := c.llc()
	for i := 0; i < size; {
		addr := off + int64(i)
		line := mem.LineAddr(addr)
		lo := int(addr - line)
		n := mem.CacheLine - lo
		if n > size-i {
			n = size - i
		}
		// NT stores invalidate any cached copy; dirty lines are written
		// back first, as on real hardware.
		if g := ns.GlobalAddr(line); llc.Present(g) {
			if data, mask, wasDirty := llc.Evict(g); wasDirty {
				t = c.postLine(ns, line, nil, t, false)
				if c.p.cfg.TrackData && data != nil {
					c.persistMasked(g, data, mask)
				}
			}
		}
		var chunk []byte
		if data != nil {
			chunk = data[i : i+n]
		}
		if n == mem.CacheLine {
			t = c.postLine(ns, line, chunk, t+c.p.cfg.NTPostDelay, true) - c.p.cfg.NTPostDelay
		} else {
			wcData := chunk
			if wcData == nil {
				wcData = zeroLine[:n]
			}
			// The WC buffer is keyed by global address: SFence drains
			// leftovers through resolveGlobal, so a relative key would
			// alias another namespace's lines once more than one
			// namespace exists.
			if flushAddr, flushData, complete := c.wc.Write(ns.GlobalAddr(addr), wcData); complete {
				if data == nil {
					flushData = nil
				}
				t = c.postLine(ns, flushAddr-ns.Base, flushData, t+c.p.cfg.NTPostDelay, true) - c.p.cfg.NTPostDelay
			}
		}
		t += c.p.cfg.NTStoreIssue
		i += n
	}
	c.proc.AdvanceTo(t)
}

var zeroLine [mem.CacheLine]byte

// ---- Fences ----

// SFence drains the thread's write-combining buffers and waits until every
// tracked post since the last fence has been accepted into a WPQ (the ADR
// persistence point).
func (c *MemCtx) SFence() {
	t := c.proc.Now()
	c.wc.Flush(func(addr int64, data []byte, mask uint64) {
		ns := c.p.resolveGlobal(addr)
		if ns == nil {
			return
		}
		lineOff := addr - ns.Base
		t = c.postLine(ns, lineOff, nil, t+c.p.cfg.NTPostDelay, true) - c.p.cfg.NTPostDelay
		t += c.p.cfg.NTStoreIssue
		if c.p.cfg.TrackData {
			c.persistMasked(addr, data, mask)
		}
	})
	if c.hasPending && c.pendingAck > t {
		t = c.pendingAck
	}
	c.hasPending = false
	c.pendingAck = 0
	c.proc.AdvanceTo(t + c.p.cfg.FenceBase)
}

func (c *MemCtx) persistMasked(lineAddr int64, data []byte, mask uint64) {
	persistMaskedTo(&c.p.persist, lineAddr, data, mask)
}

// persistMaskedTo writes only the mask-covered bytes of a 64 B line into
// the durable store.
func persistMaskedTo(store *mem.DataStore, lineAddr int64, data []byte, mask uint64) {
	for i := 0; i < mem.CacheLine; {
		if mask&(1<<uint(i)) == 0 {
			i++
			continue
		}
		j := i
		for j < mem.CacheLine && mask&(1<<uint(j)) != 0 {
			j++
		}
		store.Write(lineAddr+int64(i), data[i:j])
		i = j
	}
}

// ---- Convenience persistence idioms ----

// PersistNT writes with non-temporal stores and fences (the paper's
// recommended idiom for large transfers).
func (c *MemCtx) PersistNT(ns *Namespace, off int64, size int, data []byte) {
	c.NTStore(ns, off, size, data)
	c.SFence()
}

// PersistStore writes with cached stores, flushes with clwb, and fences
// (the recommended idiom for small writes).
func (c *MemCtx) PersistStore(ns *Namespace, off int64, size int, data []byte) {
	c.Store(ns, off, size, data)
	c.CLWB(ns, off, size)
	c.SFence()
}
