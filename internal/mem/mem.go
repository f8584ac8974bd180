// Package mem defines the basic units of the simulated memory system —
// cache lines, XPLines (the 3D XPoint internal 256 B access granularity),
// pages — and a sparse byte store used to hold the actual contents of
// simulated DIMMs.
package mem

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
)

// Fundamental granularities of the platform (Section 2.1 of the paper).
const (
	CacheLine = 64   // CPU cache line and DDR-T transfer unit
	XPLine    = 256  // 3D XPoint media access granularity
	Page      = 4096 // OS page and interleaving granularity
)

// LineAddr returns the cache-line-aligned base of addr.
func LineAddr(addr int64) int64 { return addr &^ (CacheLine - 1) }

// XPLineAddr returns the XPLine-aligned base of addr.
func XPLineAddr(addr int64) int64 { return addr &^ (XPLine - 1) }

// PageAddr returns the page-aligned base of addr.
func PageAddr(addr int64) int64 { return addr &^ (Page - 1) }

// LinesIn returns how many cache lines the byte range [addr, addr+size)
// touches.
func LinesIn(addr int64, size int) int {
	if size <= 0 {
		return 0
	}
	first := LineAddr(addr)
	last := LineAddr(addr + int64(size) - 1)
	return int((last-first)/CacheLine) + 1
}

// XPLinesIn returns how many XPLines the byte range touches.
func XPLinesIn(addr int64, size int) int {
	if size <= 0 {
		return 0
	}
	first := XPLineAddr(addr)
	last := XPLineAddr(addr + int64(size) - 1)
	return int((last-first)/XPLine) + 1
}

// DataStore is a sparse byte store over a 64-bit address space, allocating
// 4 KB pages on demand. It holds the durable contents of simulated memory.
// The zero value is ready to use.
//
// A store made by Fork shares its parent's pages copy-on-write: it reads
// them in place and copies a page on its first write to it.
type DataStore struct {
	pages Table[pageRef] // keyed by page address
}

// pageRef is one resident page. own is false while the page is shared
// with the store it was forked from.
type pageRef struct {
	p   *[Page]byte
	own bool
}

// Fork returns a store holding the same bytes as d that shares d's pages
// until it writes them. d itself keeps writing its pages in place, so d
// must not be written while a fork shares them; a platform snapshot is
// never run, which is what makes its forks independent.
func (d *DataStore) Fork() DataStore {
	f := DataStore{pages: d.pages}
	f.pages.slots = append([]tableSlot[pageRef](nil), d.pages.slots...)
	for i := range f.pages.slots {
		f.pages.slots[i].val.own = false
	}
	return f
}

// writable returns the page holding addr for writing: allocated on first
// touch, and copied first when it is still shared.
func (d *DataStore) writable(addr int64) *[Page]byte {
	base := PageAddr(addr)
	ref, ok := d.pages.Get(base)
	if ok && ref.own {
		return ref.p
	}
	p := new([Page]byte)
	if ok {
		*p = *ref.p
	}
	d.pages.Put(base, pageRef{p: p, own: true})
	return p
}

// Write copies data into the store at addr.
func (d *DataStore) Write(addr int64, data []byte) {
	for len(data) > 0 {
		p := d.writable(addr)
		off := int(addr - PageAddr(addr))
		n := copy(p[off:], data)
		data = data[n:]
		addr += int64(n)
	}
}

// Read copies len(buf) bytes at addr into buf. Unwritten bytes read as zero.
func (d *DataStore) Read(addr int64, buf []byte) {
	for len(buf) > 0 {
		off := int(addr - PageAddr(addr))
		n := Page - off
		if n > len(buf) {
			n = len(buf)
		}
		if ref, ok := d.pages.Get(PageAddr(addr)); ok {
			copy(buf[:n], ref.p[off:off+n])
		} else {
			for i := 0; i < n; i++ {
				buf[i] = 0
			}
		}
		buf = buf[n:]
		addr += int64(n)
	}
}

// Zero clears size bytes at addr.
func (d *DataStore) Zero(addr int64, size int) {
	var zeros [Page]byte
	for size > 0 {
		n := Page
		if n > size {
			n = size
		}
		d.Write(addr, zeros[:n])
		addr += int64(n)
		size -= n
	}
}

// Pages returns the number of resident pages (for tests and memory
// accounting).
func (d *DataStore) Pages() int { return d.pages.Len() }

// Digest hashes the resident pages, in address order, with their bytes
// (FNV-1a). Stores holding the same pages of the same bytes have equal
// digests, whichever of them are shared.
func (d *DataStore) Digest() uint64 {
	bases := make([]int64, 0, d.pages.Len())
	for _, s := range d.pages.slots {
		if s.key1 != 0 {
			bases = append(bases, s.key1-1)
		}
	}
	slices.Sort(bases)
	h := fnv.New64a()
	var b [8]byte
	for _, base := range bases {
		ref, _ := d.pages.Get(base)
		binary.LittleEndian.PutUint64(b[:], uint64(base))
		h.Write(b[:])
		h.Write(ref.p[:])
	}
	return h.Sum64()
}

// SharedPages returns how many resident pages are still shared with the
// store d was forked from: Pages minus the pages d has copied or added.
func (d *DataStore) SharedPages() int {
	n := 0
	for _, s := range d.pages.slots {
		if s.key1 != 0 && !s.val.own {
			n++
		}
	}
	return n
}
