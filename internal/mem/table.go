package mem

import "math/bits"

// Table is an open-addressing hash table keyed by non-negative int64
// addresses (byte, line or page addresses). It is the index behind the
// simulator's address-keyed state — the LLC slot index, the XPBuffer, the
// durable byte store — where Go map hashing used to dominate host time.
//
// Slots hold the key and value inline; lookups probe linearly from a
// Fibonacci-hashed home slot, and Delete shifts the rest of the probe chain
// back instead of leaving tombstones, so chains never degrade under
// insert/delete churn. The table starts empty, grows by doubling at 3/4
// load, and Clear keeps its storage, so a steady-state workload allocates
// nothing. The zero value is ready to use.
type Table[V any] struct {
	slots []tableSlot[V] // len is zero or a power of two
	n     int
	shift uint // 64 - log2(len(slots)): home(key) keeps the top bits
}

type tableSlot[V any] struct {
	key1 int64 // key+1; 0 marks an empty slot
	val  V
}

// tableMinSlots is the size of a table's first allocation.
const tableMinSlots = 8

// home returns key's preferred slot: the top bits of key times 2^64/φ.
func (t *Table[V]) home(key int64) int {
	return int(uint64(key) * 0x9E3779B97F4A7C15 >> t.shift)
}

// Len returns the number of keys held.
func (t *Table[V]) Len() int { return t.n }

// Get returns key's value and whether key is present.
func (t *Table[V]) Get(key int64) (V, bool) {
	if t.n > 0 {
		mask := len(t.slots) - 1
		for i := t.home(key); ; i = (i + 1) & mask {
			s := &t.slots[i]
			if s.key1 == 0 {
				break
			}
			if s.key1 == key+1 {
				return s.val, true
			}
		}
	}
	var zero V
	return zero, false
}

// Put sets key's value, inserting key if absent. It panics on a negative
// key.
func (t *Table[V]) Put(key int64, val V) {
	if key < 0 {
		panic("mem: negative Table key")
	}
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key1 == key+1 {
			s.val = val
			return
		}
		if s.key1 == 0 {
			s.key1, s.val = key+1, val
			t.n++
			return
		}
	}
}

// Delete removes key and reports whether it was present.
func (t *Table[V]) Delete(key int64) bool {
	if t.n == 0 {
		return false
	}
	mask := len(t.slots) - 1
	i := t.home(key)
	for ; ; i = (i + 1) & mask {
		if k1 := t.slots[i].key1; k1 == 0 {
			return false
		} else if k1 == key+1 {
			break
		}
	}
	// Backward shift: walk the chain after the hole at i and move back
	// every entry whose home does not lie cyclically in (i, j] — it would
	// be unreachable past the hole otherwise.
	for j := (i + 1) & mask; t.slots[j].key1 != 0; j = (j + 1) & mask {
		if h := t.home(t.slots[j].key1 - 1); (j-h)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = tableSlot[V]{}
	t.n--
	return true
}

// Clear removes every key, keeping the storage for reuse.
func (t *Table[V]) Clear() {
	clear(t.slots)
	t.n = 0
}

// grow doubles the slot array (or makes the first one) and rehashes.
func (t *Table[V]) grow() {
	old := t.slots
	size := max(2*len(old), tableMinSlots)
	t.slots = make([]tableSlot[V], size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s.key1 == 0 {
			continue
		}
		i := t.home(s.key1 - 1)
		for t.slots[i].key1 != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
