// Package deepcopy copies an object graph. Every value reachable from the
// root is duplicated, and the copy keeps the graph's aliasing: two
// pointers or slices into the same memory in the original point into the
// same memory in the copy, including pointers into the middle of a struct
// or array and sub-slices of one backing array. Maps keep their identity
// too. Strings are immutable and shared.
//
// A type copies itself when its pointer has a method Fork() T returning
// the type itself: Copy calls Fork on the original value and stores the
// result in place of a field-by-field copy, without looking inside. That
// is how a copy can share data the type knows how to share safely, such
// as mem.DataStore's copy-on-write pages.
//
// A graph holding a non-nil func, chan or unsafe.Pointer cannot be copied:
// Copy returns an error naming the type that holds it.
//
// Copy only reads the original, so several goroutines may copy one graph
// at once, provided nothing writes it meanwhile.
package deepcopy

import (
	"fmt"
	"reflect"
	"sort"
	"unsafe"
)

// Copy returns a deep copy of v.
func Copy[T any](v T) (T, error) {
	c := &copier{
		types:  make(map[reflect.Type]*typeInfo),
		walked: make(map[blockKey]int),
		maps:   make(map[unsafe.Pointer]reflect.Value),
	}
	root := &v
	t := reflect.TypeFor[T]()
	if t.Size() == 0 {
		return v, nil
	}
	if err := c.scan(unsafe.Pointer(root), t); err != nil {
		var zero T
		return zero, err
	}
	if err := c.merge(); err != nil {
		var zero T
		return zero, err
	}
	c.copyBlocks()
	return *(*T)(c.translate(unsafe.Pointer(root))), nil
}

// A block is one region of the original reached through a pointer (one
// element) or a slice (its capacity): n elements of typ from start.
type block struct {
	start unsafe.Pointer
	end   uintptr
	typ   reflect.Type
	n     int
	// dst is the copy's memory; set on root blocks only.
	dst unsafe.Pointer
}

type blockKey struct {
	start unsafe.Pointer
	typ   reflect.Type
}

// A leaf is one pointer-holding part of a type's inline layout, at an
// offset from the start of the value.
type leaf struct {
	off  uintptr
	typ  reflect.Type
	fork int // Fork's method index on PointerTo(typ), or -1
}

// typeInfo lists a type's leaves; a type without leaves is copied as
// plain bytes.
type typeInfo struct {
	typ    reflect.Type
	size   uintptr
	leaves []leaf
}

type copier struct {
	types  map[reflect.Type]*typeInfo
	walked map[blockKey]int // elements already scanned per block start
	blocks []block          // every block met; after merge, the roots only
	maps   map[unsafe.Pointer]reflect.Value
	work   []block
}

func (c *copier) info(t reflect.Type) *typeInfo {
	if ti, ok := c.types[t]; ok {
		return ti
	}
	ti := &typeInfo{typ: t, size: t.Size(), leaves: collect(t, 0, nil)}
	c.types[t] = ti
	return ti
}

// forkMethod returns the index of t's Fork method, or -1 when t does not
// copy itself.
func forkMethod(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Pointer, reflect.Interface:
		return -1
	}
	m, ok := reflect.PointerTo(t).MethodByName("Fork")
	if !ok || m.Type.NumIn() != 1 || m.Type.NumOut() != 1 || m.Type.Out(0) != t {
		return -1
	}
	return m.Index
}

func collect(t reflect.Type, off uintptr, out []leaf) []leaf {
	if i := forkMethod(t); i >= 0 {
		return append(out, leaf{off: off, typ: t, fork: i})
	}
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface,
		reflect.Func, reflect.Chan, reflect.UnsafePointer:
		return append(out, leaf{off: off, typ: t, fork: -1})
	case reflect.Array:
		elem := collect(t.Elem(), 0, nil)
		if len(elem) == 0 {
			return out
		}
		for i := 0; i < t.Len(); i++ {
			for _, l := range elem {
				l.off += off + uintptr(i)*t.Elem().Size()
				out = append(out, l)
			}
		}
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			out = collect(f.Type, off+f.Offset, out)
		}
	}
	return out
}

// sliceHeader is the runtime layout of a slice.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// scan records every block reachable from the value of type t at p.
func (c *copier) scan(p unsafe.Pointer, t reflect.Type) error {
	c.add(p, t, 1)
	for len(c.work) > 0 {
		b := c.work[len(c.work)-1]
		c.work = c.work[:len(c.work)-1]
		ti := c.info(b.typ)
		for i := 0; i < b.n; i++ {
			if err := c.scanValue(unsafe.Add(b.start, uintptr(i)*ti.size), ti); err != nil {
				return err
			}
		}
	}
	return nil
}

// add records the block of n elements of t at p and queues the elements
// not scanned yet. Zero-size values hold nothing to copy.
func (c *copier) add(p unsafe.Pointer, t reflect.Type, n int) {
	if t.Size() == 0 {
		return
	}
	k := blockKey{p, t}
	done := c.walked[k]
	if n <= done {
		return
	}
	c.walked[k] = n
	c.blocks = append(c.blocks, block{start: p, end: uintptr(p) + uintptr(n)*t.Size(), typ: t, n: n})
	if len(c.info(t).leaves) > 0 {
		c.work = append(c.work, block{start: unsafe.Add(p, uintptr(done)*t.Size()), typ: t, n: n - done})
	}
}

func (c *copier) scanValue(p unsafe.Pointer, ti *typeInfo) error {
	for _, l := range ti.leaves {
		if l.fork >= 0 {
			continue
		}
		at := unsafe.Add(p, l.off)
		switch l.typ.Kind() {
		case reflect.Pointer:
			if q := *(*unsafe.Pointer)(at); q != nil {
				c.add(q, l.typ.Elem(), 1)
			}
		case reflect.Slice:
			if h := (*sliceHeader)(at); h.data != nil && h.cap > 0 {
				c.add(h.data, l.typ.Elem(), h.cap)
			}
		case reflect.Map:
			m := reflect.NewAt(l.typ, at).Elem()
			if m.IsNil() || c.walked[blockKey{m.UnsafePointer(), l.typ}] > 0 {
				continue
			}
			c.walked[blockKey{m.UnsafePointer(), l.typ}] = 1
			kt, vt := c.info(l.typ.Key()), c.info(l.typ.Elem())
			for it := m.MapRange(); it.Next(); {
				if err := c.scanCell(it.Key(), kt); err != nil {
					return err
				}
				if err := c.scanCell(it.Value(), vt); err != nil {
					return err
				}
			}
		case reflect.Interface:
			v := reflect.NewAt(l.typ, at).Elem()
			if v.IsNil() {
				continue
			}
			e := v.Elem()
			if err := c.scanCell(e, c.info(e.Type())); err != nil {
				return err
			}
		default: // func, chan, unsafe.Pointer
			if *(*unsafe.Pointer)(at) != nil {
				return fmt.Errorf("deepcopy: %v holds a non-nil %v at offset %d", ti.typ, l.typ, l.off)
			}
		}
	}
	return nil
}

// scanCell scans a value that has no address of its own (a map entry or
// an interface's dynamic value) through a copy of it.
func (c *copier) scanCell(v reflect.Value, ti *typeInfo) error {
	if len(ti.leaves) == 0 {
		return nil
	}
	cell := reflect.New(v.Type())
	cell.Elem().Set(v)
	return c.scanValue(cell.UnsafePointer(), ti)
}

// merge reduces the blocks to roots: a block inside another is reached
// through the enclosing one. Two blocks that overlap without one holding
// the other cannot be laid out again.
func (c *copier) merge() error {
	sort.Slice(c.blocks, func(i, j int) bool {
		a, b := c.blocks[i], c.blocks[j]
		if a.start != b.start {
			return uintptr(a.start) < uintptr(b.start)
		}
		return a.end > b.end
	})
	roots := c.blocks[:0]
	for _, b := range c.blocks {
		if n := len(roots); n > 0 && uintptr(b.start) < roots[n-1].end {
			if r := roots[n-1]; b.end > r.end {
				return fmt.Errorf("deepcopy: a %v and a %v partly overlap", r.typ, b.typ)
			}
			continue
		}
		roots = append(roots, b)
	}
	c.blocks = roots
	return nil
}

// translate maps a pointer into the original to the same place in the
// copy. Callers keep pointers to zero-size values, which scan never
// records, as they are.
func (c *copier) translate(p unsafe.Pointer) unsafe.Pointer {
	i := sort.Search(len(c.blocks), func(i int) bool { return uintptr(c.blocks[i].start) > uintptr(p) }) - 1
	if i < 0 || uintptr(p) >= c.blocks[i].end {
		panic(fmt.Sprintf("deepcopy: pointer %p lies in no scanned block", p))
	}
	b := &c.blocks[i]
	return unsafe.Add(b.dst, uintptr(p)-uintptr(b.start))
}

// copyBlocks allocates every root, copies its bytes, then rewrites the
// leaves of the copy to point into the copy.
func (c *copier) copyBlocks() {
	for i := range c.blocks {
		b := &c.blocks[i]
		if b.n == 1 {
			b.dst = reflect.New(b.typ).UnsafePointer()
		} else {
			b.dst = reflect.MakeSlice(reflect.SliceOf(b.typ), b.n, b.n).UnsafePointer()
		}
		reflect.Copy(reflect.SliceAt(b.typ, b.dst, b.n), reflect.SliceAt(b.typ, b.start, b.n))
	}
	for _, b := range c.blocks {
		ti := c.info(b.typ)
		if len(ti.leaves) == 0 {
			continue
		}
		for i := 0; i < b.n; i++ {
			c.fix(unsafe.Add(b.dst, uintptr(i)*ti.size), ti)
		}
	}
}

// fix rewrites, in place, the leaves of a value that was copied
// byte-for-byte from the original.
func (c *copier) fix(p unsafe.Pointer, ti *typeInfo) {
	for _, l := range ti.leaves {
		at := unsafe.Add(p, l.off)
		if l.fork >= 0 {
			forked := reflect.NewAt(l.typ, at).Method(l.fork).Call(nil)[0]
			reflect.NewAt(l.typ, at).Elem().Set(forked)
			continue
		}
		switch l.typ.Kind() {
		case reflect.Pointer:
			if q := *(*unsafe.Pointer)(at); q != nil && l.typ.Elem().Size() > 0 {
				*(*unsafe.Pointer)(at) = c.translate(q)
			}
		case reflect.Slice:
			if h := (*sliceHeader)(at); h.data != nil && h.cap > 0 && l.typ.Elem().Size() > 0 {
				h.data = c.translate(h.data)
			}
		case reflect.Map:
			m := reflect.NewAt(l.typ, at).Elem()
			if !m.IsNil() {
				m.Set(c.copyMap(m))
			}
		case reflect.Interface:
			v := reflect.NewAt(l.typ, at).Elem()
			if !v.IsNil() {
				v.Set(c.copyCell(v.Elem()))
			}
		}
	}
}

func (c *copier) copyMap(m reflect.Value) reflect.Value {
	if nm, ok := c.maps[m.UnsafePointer()]; ok {
		return nm
	}
	nm := reflect.MakeMapWithSize(m.Type(), m.Len())
	c.maps[m.UnsafePointer()] = nm
	for it := m.MapRange(); it.Next(); {
		nm.SetMapIndex(c.copyCell(it.Key()), c.copyCell(it.Value()))
	}
	return nm
}

// copyCell copies a value that has no address of its own.
func (c *copier) copyCell(v reflect.Value) reflect.Value {
	ti := c.info(v.Type())
	if len(ti.leaves) == 0 {
		return v
	}
	cell := reflect.New(v.Type())
	cell.Elem().Set(v)
	c.fix(cell.UnsafePointer(), ti)
	return cell.Elem()
}
