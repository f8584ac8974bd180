package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"optanestudy/internal/sim"
)

func TestAlignment(t *testing.T) {
	if LineAddr(130) != 128 || LineAddr(128) != 128 || LineAddr(63) != 0 {
		t.Error("LineAddr broken")
	}
	if XPLineAddr(511) != 256 || XPLineAddr(256) != 256 {
		t.Error("XPLineAddr broken")
	}
	if PageAddr(8191) != 4096 {
		t.Error("PageAddr broken")
	}
}

func TestLinesIn(t *testing.T) {
	cases := []struct {
		addr int64
		size int
		want int
	}{
		{0, 64, 1},
		{0, 65, 2},
		{63, 2, 2},
		{0, 0, 0},
		{64, 128, 2},
		{100, 1, 1},
	}
	for _, c := range cases {
		if got := LinesIn(c.addr, c.size); got != c.want {
			t.Errorf("LinesIn(%d, %d) = %d, want %d", c.addr, c.size, got, c.want)
		}
	}
	if XPLinesIn(255, 2) != 2 {
		t.Error("XPLinesIn straddle broken")
	}
	if XPLinesIn(0, 256) != 1 {
		t.Error("XPLinesIn exact broken")
	}
}

func TestDataStoreReadWrite(t *testing.T) {
	var d DataStore
	msg := []byte("hello, persistent world")
	d.Write(100, msg)
	got := make([]byte, len(msg))
	d.Read(100, got)
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestDataStoreCrossPage(t *testing.T) {
	var d DataStore
	data := make([]byte, 3*Page)
	for i := range data {
		data[i] = byte(i % 251)
	}
	d.Write(Page-100, data)
	got := make([]byte, len(data))
	d.Read(Page-100, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page roundtrip failed")
	}
	if d.Pages() != 4 {
		t.Fatalf("pages = %d, want 4", d.Pages())
	}
}

func TestDataStoreUnwrittenReadsZero(t *testing.T) {
	var d DataStore
	buf := []byte{1, 2, 3, 4}
	d.Read(1<<40, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten memory not zero")
		}
	}
}

func TestDataStoreZero(t *testing.T) {
	var d DataStore
	d.Write(0, bytes.Repeat([]byte{0xFF}, 2*Page))
	d.Zero(100, Page)
	buf := make([]byte, 2*Page)
	d.Read(0, buf)
	for i, b := range buf {
		in := i >= 100 && i < 100+Page
		if in && b != 0 {
			t.Fatalf("byte %d not zeroed", i)
		}
		if !in && b != 0xFF {
			t.Fatalf("byte %d clobbered", i)
		}
	}
}

// Property: random writes then reads round-trip, even with overlaps
// (later writes win).
func TestDataStoreQuick(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		var d DataStore
		shadow := make(map[int64]byte)
		for i := 0; i < 200; i++ {
			addr := r.Int63n(3 * Page)
			n := 1 + r.Intn(300)
			data := make([]byte, n)
			for j := range data {
				data[j] = byte(r.Uint64())
				shadow[addr+int64(j)] = data[j]
			}
			d.Write(addr, data)
		}
		buf := make([]byte, 1)
		for addr, want := range shadow {
			d.Read(addr, buf)
			if buf[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestDataStoreForkCopyOnWrite checks that forks read their parent's
// bytes, copy a page only on their first write to it, and never see each
// other's or change their parent's bytes.
func TestDataStoreForkCopyOnWrite(t *testing.T) {
	var parent DataStore
	parent.Write(0, bytes.Repeat([]byte{1}, 3*Page))
	a, b := parent.Fork(), parent.Fork()
	if a.Pages() != 3 || a.SharedPages() != 3 {
		t.Fatalf("fresh fork: %d pages, %d shared; want 3 and 3", a.Pages(), a.SharedPages())
	}
	a.Write(Page+10, []byte{2, 2})
	b.Write(5*Page, []byte{3})
	if a.SharedPages() != 2 || b.SharedPages() != 3 || b.Pages() != 4 {
		t.Errorf("after writes: a shares %d, b shares %d of %d; want 2, 3 of 4",
			a.SharedPages(), b.SharedPages(), b.Pages())
	}
	read := func(d *DataStore, addr int64) byte {
		buf := make([]byte, 1)
		d.Read(addr, buf)
		return buf[0]
	}
	for _, c := range []struct {
		name string
		d    *DataStore
		addr int64
		want byte
	}{
		{"a written", &a, Page + 10, 2},
		{"a copied neighbour", &a, Page + 12, 1},
		{"a shared", &a, 0, 1},
		{"b sees no a write", &b, Page + 10, 1},
		{"b written", &b, 5 * Page, 3},
		{"a sees no b write", &a, 5 * Page, 0},
		{"parent unchanged", &parent, Page + 10, 1},
		{"parent gains no page", &parent, 5 * Page, 0},
	} {
		if got := read(c.d, c.addr); got != c.want {
			t.Errorf("%s: byte at %d = %d, want %d", c.name, c.addr, got, c.want)
		}
	}
	if parent.Pages() != 3 || parent.SharedPages() != 0 {
		t.Errorf("parent: %d pages, %d shared; want 3 and 0", parent.Pages(), parent.SharedPages())
	}
}
