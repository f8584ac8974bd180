package mem

import (
	"encoding/binary"
	"testing"

	"optanestudy/internal/sim"
)

// checkTable compares tab against the reference map and checks the probing
// invariant: every key sits at its home slot or after it with no empty slot
// in between (a hole there would make the key unreachable).
func checkTable(t testing.TB, tab *Table[int64], ref map[int64]int64) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("Len = %d, reference holds %d", tab.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := tab.Get(k); !ok || got != want {
			t.Fatalf("Get(%d) = %d, %v; want %d, true", k, got, ok, want)
		}
	}
	used := 0
	mask := len(tab.slots) - 1
	for i, s := range tab.slots {
		if s.key1 == 0 {
			continue
		}
		used++
		if _, ok := ref[s.key1-1]; !ok {
			t.Fatalf("slot %d holds key %d, absent from the reference", i, s.key1-1)
		}
		for j := tab.home(s.key1 - 1); j != i; j = (j + 1) & mask {
			if tab.slots[j].key1 == 0 {
				t.Fatalf("key %d at slot %d is cut off from its home by empty slot %d", s.key1-1, i, j)
			}
		}
	}
	if used != len(ref) {
		t.Fatalf("%d occupied slots, reference holds %d keys", used, len(ref))
	}
}

// collidingKeys returns n distinct non-negative keys whose home slot is the
// same at every table size up to 2^20 slots: their Fibonacci products share
// the top 20 bits, top. top = 1<<20-1 puts them in the last slot, so their
// chain wraps past the end of the slot array.
func collidingKeys(n int, top uint64) []int64 {
	// The multiplier is odd, so it is invertible mod 2^64 (Newton's
	// iteration doubles the correct low bits each step).
	const fib = 0x9E3779B97F4A7C15
	inv := uint64(fib)
	for i := 0; i < 6; i++ {
		inv *= 2 - fib*inv
	}
	var keys []int64
	for low := uint64(1); len(keys) < n; low++ {
		if k := int64((top<<44 | low) * inv); k >= 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestTableCollidingKeysShareHome(t *testing.T) {
	var tab Table[int64]
	tab.grow()
	for size := tableMinSlots; size <= 1<<16; size *= 2 {
		for _, top := range []uint64{0, 1<<20 - 1} {
			keys := collidingKeys(8, top)
			for _, k := range keys {
				if h := tab.home(k); h != tab.home(keys[0]) || (top != 0 && h != size-1) {
					t.Fatalf("size %d: key %d homes at %d, first key at %d", size, k, h, tab.home(keys[0]))
				}
			}
		}
		tab.grow()
	}
}

func TestTableRandomOpsMatchMap(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := sim.NewRNG(seed)
		var tab Table[int64]
		ref := map[int64]int64{}
		span := int64(8 << (seed % 8)) // small spans force long chains and re-puts
		for i := 0; i < 5000; i++ {
			k := r.Int63n(span) * CacheLine
			switch op := r.Intn(100); {
			case op < 50:
				v := r.Int63n(1 << 40)
				tab.Put(k, v)
				ref[k] = v
			case op < 60:
				got, ok := tab.Get(k)
				want, wantOK := ref[k]
				if got != want || ok != wantOK {
					t.Fatalf("seed %d: Get(%d) = %d, %v; want %d, %v", seed, k, got, ok, want, wantOK)
				}
			case op < 99:
				_, present := ref[k]
				if tab.Delete(k) != present {
					t.Fatalf("seed %d: Delete(%d) reported %v", seed, k, !present)
				}
				delete(ref, k)
			default:
				tab.Clear()
				clear(ref)
			}
			if i%97 == 0 {
				checkTable(t, &tab, ref)
			}
		}
		checkTable(t, &tab, ref)
	}
}

func TestTableCollidingChains(t *testing.T) {
	for _, top := range []uint64{0, 1 << 19, 1<<20 - 1} { // first, middle and wrapping last slot
		keys := collidingKeys(40, top)
		var tab Table[int64]
		ref := map[int64]int64{}
		// Growth during a chain: 40 keys on one home take the table from 8
		// to 64 slots while every key is still on that chain.
		for i, k := range keys {
			tab.Put(k, int64(i))
			ref[k] = int64(i)
			checkTable(t, &tab, ref)
		}
		// Deletes from the head, the middle and the tail of the chain.
		for _, i := range []int{0, 20, 39, 10, 30, 1} {
			if !tab.Delete(keys[i]) {
				t.Fatalf("top %#x: Delete(keys[%d]) missed", top, i)
			}
			delete(ref, keys[i])
			checkTable(t, &tab, ref)
			if tab.Delete(keys[i]) {
				t.Fatalf("top %#x: second Delete(keys[%d]) hit", top, i)
			}
		}
		// Re-insert over the shifted chain, overwrite, then drain it.
		for i, k := range keys {
			tab.Put(k, int64(-i))
			ref[k] = int64(-i)
		}
		checkTable(t, &tab, ref)
		for i := len(keys) - 1; i >= 0; i -= 2 {
			tab.Delete(keys[i])
			delete(ref, keys[i])
			checkTable(t, &tab, ref)
		}
	}
}

func TestTableMixedHomesWrap(t *testing.T) {
	// Keys homed in the last slot and keys homed in slot 0 interleave on
	// one run that wraps: a delete must not shift a slot-0 key before its
	// home, and must shift wrapped last-slot keys back across the end.
	last := collidingKeys(6, 1<<20-1)
	first := collidingKeys(6, 0)
	var tab Table[int64]
	ref := map[int64]int64{}
	tab.grow()
	tab.grow() // 16 slots: 12 keys stay within 3/4 load
	for i := range last {
		tab.Put(last[i], 1)
		ref[last[i]] = 1
		tab.Put(first[i], 2)
		ref[first[i]] = 2
	}
	checkTable(t, &tab, ref)
	for i := range last {
		tab.Delete(last[i])
		delete(ref, last[i])
		checkTable(t, &tab, ref)
	}
}

func TestTableClearKeepsStorage(t *testing.T) {
	var tab Table[int64]
	for k := int64(0); k < 100; k++ {
		tab.Put(k*Page, k)
	}
	size := len(tab.slots)
	tab.Clear()
	if tab.Len() != 0 || len(tab.slots) != size {
		t.Fatalf("after Clear: Len %d, %d slots; want 0, %d", tab.Len(), len(tab.slots), size)
	}
	if _, ok := tab.Get(5 * Page); ok {
		t.Fatal("cleared key still present")
	}
	checkTable(t, &tab, map[int64]int64{})
}

func TestTableNegativeKey(t *testing.T) {
	var tab Table[int64]
	tab.Put(0, 7)
	if _, ok := tab.Get(-1); ok {
		t.Fatal("Get(-1) found a key")
	}
	if tab.Delete(-1) {
		t.Fatal("Delete(-1) removed a key")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Put(-1) did not panic")
		}
	}()
	tab.Put(-1, 1)
}

func TestTableChurnZeroAlloc(t *testing.T) {
	var tab Table[int64]
	const live = 1000
	for k := int64(0); k < live; k++ {
		tab.Put(k*CacheLine, k)
	}
	next := int64(live)
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 50; i++ {
			tab.Delete((next - live) * CacheLine)
			tab.Put(next*CacheLine, next)
			next++
		}
	})
	if allocs != 0 {
		t.Fatalf("fixed-size Put/Delete churn allocates %.1f per run, want 0", allocs)
	}
	if tab.Len() != live {
		t.Fatalf("Len = %d, want %d", tab.Len(), live)
	}
}

// FuzzTable replays a byte string as a Put/Get/Delete/Clear sequence
// against a map reference. Each op is 3 bytes: an opcode and a 16-bit key
// index; odd indices pick a key from one colliding chain that wraps the
// slot array, even ones a plain line address.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 3, 2, 0, 1, 1, 0, 3})
	f.Add([]byte{0, 1, 0, 0, 3, 0, 0, 5, 0, 0, 7, 0, 2, 3, 0, 1, 5, 0, 3, 0, 0})
	chain := collidingKeys(64, 1<<20-1)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab Table[int64]
		ref := map[int64]int64{}
		for i := 0; i+3 <= len(ops); i += 3 {
			idx := int64(binary.LittleEndian.Uint16(ops[i+1:]))
			k := idx * CacheLine
			if idx%2 == 1 {
				k = chain[idx/2%int64(len(chain))]
			}
			switch ops[i] % 8 {
			case 0, 1, 2:
				tab.Put(k, int64(i))
				ref[k] = int64(i)
			case 3, 4:
				got, ok := tab.Get(k)
				if want, wantOK := ref[k]; got != want || ok != wantOK {
					t.Fatalf("op %d: Get(%d) = %d, %v; want %d, %v", i/3, k, got, ok, want, wantOK)
				}
			case 5, 6:
				_, present := ref[k]
				if tab.Delete(k) != present {
					t.Fatalf("op %d: Delete(%d) reported %v", i/3, k, !present)
				}
				delete(ref, k)
			case 7:
				tab.Clear()
				clear(ref)
			}
		}
		checkTable(t, &tab, ref)
	})
}

func BenchmarkTableGet(b *testing.B) {
	var tab Table[int32]
	const n = 1 << 16
	for k := int64(0); k < n; k++ {
		tab.Put(k*CacheLine, int32(k))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Get(int64(i*7919%(2*n)) * CacheLine)
	}
}
