package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestEngineSingleProc(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.Go("a", 0, func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Advance(10 * Nanosecond)
			trace = append(trace, p.Now())
		}
	})
	end := e.Run()
	if end != 30*Nanosecond {
		t.Fatalf("end = %v, want 30ns", end)
	}
	want := []Time{10 * Nanosecond, 20 * Nanosecond, 30 * Nanosecond}
	for i, w := range want {
		if trace[i] != w {
			t.Errorf("trace[%d] = %v, want %v", i, trace[i], w)
		}
	}
}

func TestEngineInterleavesByTime(t *testing.T) {
	e := NewEngine()
	var order []string
	// Proc a ticks every 10ns, proc b every 25ns; events must appear in
	// global time order.
	e.Go("a", 0, func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Advance(10 * Nanosecond)
			order = append(order, "a")
		}
	})
	e.Go("b", 0, func(p *Proc) {
		for i := 0; i < 2; i++ {
			p.Advance(25 * Nanosecond)
			order = append(order, "b")
		}
	})
	e.Run()
	want := []string{"a", "a", "b", "a", "a", "b", "a"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineFIFOAmongTies(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		e.Go("p", 0, func(p *Proc) {
			p.Advance(5 * Nanosecond)
			order = append(order, i)
		})
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("tie order = %v, want spawn order", order)
		}
	}
}

func TestEngineNestedSpawn(t *testing.T) {
	e := NewEngine()
	var childTime Time
	e.Go("parent", 0, func(p *Proc) {
		p.Advance(100 * Nanosecond)
		p.Engine().Go("child", p.Now(), func(c *Proc) {
			c.Advance(Nanosecond)
			childTime = c.Now()
		})
		p.Advance(50 * Nanosecond)
	})
	e.Run()
	if childTime != 101*Nanosecond {
		t.Fatalf("child ran at %v, want 101ns", childTime)
	}
}

// TestEngineSpawnFromCoroutineInterleaves spawns a child from inside a
// running proc at a later start time; the child must not run before its
// start, and must interleave by time with a third proc that was spawned
// before Run.
func TestEngineSpawnFromCoroutineInterleaves(t *testing.T) {
	e := NewEngine()
	var log []string
	stamp := func(p *Proc) { log = append(log, fmt.Sprintf("%s@%d", p.Name(), p.Now()/Nanosecond)) }
	e.Go("parent", 0, func(p *Proc) {
		p.Advance(10 * Nanosecond)
		stamp(p)
		p.Engine().Go("child", 25*Nanosecond, func(c *Proc) {
			stamp(c)
			c.Advance(10 * Nanosecond)
			stamp(c)
		})
		p.Advance(30 * Nanosecond)
		stamp(p)
	})
	e.Go("ticker", 0, func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Advance(12 * Nanosecond)
			stamp(p)
		}
	})
	if end := e.Run(); end != 48*Nanosecond {
		t.Fatalf("end = %v, want 48ns", end)
	}
	want := "parent@10 ticker@12 ticker@24 child@25 child@35 ticker@36 parent@40 ticker@48"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("order:\n got %s\nwant %s", got, want)
	}
}

func TestEngineAdvanceToPastIsNoop(t *testing.T) {
	e := NewEngine()
	e.Go("p", 0, func(p *Proc) {
		p.AdvanceTo(50 * Nanosecond)
		p.AdvanceTo(10 * Nanosecond) // must not go backwards
		if p.Now() != 50*Nanosecond {
			t.Errorf("Now = %v after backwards AdvanceTo, want 50ns", p.Now())
		}
	})
	e.Run()
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		var stamps []Time
		srv := &Server{}
		for i := 0; i < 4; i++ {
			e.Go("w", 0, func(p *Proc) {
				r := NewRNG(uint64(p.ID()))
				for j := 0; j < 20; j++ {
					_, end := srv.Acquire(p.Now(), Time(r.Intn(100))*Nanosecond)
					p.AdvanceTo(end)
					stamps = append(stamps, p.Now())
				}
			})
		}
		e.Run()
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if Nanos(81).Nanoseconds() != 81 {
		t.Errorf("Nanos(81) = %v", Nanos(81))
	}
	if Micros(1.5) != 1500*Nanosecond {
		t.Errorf("Micros(1.5) = %v", Micros(1.5))
	}
	if got := GBs(1).ServiceTime(1000); got != Microsecond {
		t.Errorf("1GB/s for 1000B = %v, want 1us", got)
	}
	if got := GBs(2.5).ServiceTime(256); got != Nanos(102.4) {
		t.Errorf("2.5GB/s for 256B = %v, want 102.4ns", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{81 * Nanosecond, "81.00ns"},
		{1500 * Nanosecond, "1.500us"},
		{2 * Millisecond, "2.000ms"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestServiceTimeMonotonic(t *testing.T) {
	f := func(a, b uint16) bool {
		r := GBs(6.6)
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return r.ServiceTime(x) <= r.ServiceTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The proc heap must pop in (now, seq) order under any interleaving of
// pushes and pops, with many equal times so the seq tiebreak decides.
func TestProcHeapOrder(t *testing.T) {
	r := NewRNG(3)
	var h procHeap
	var seq uint64
	last := &Proc{now: -1}
	for i := 0; i < 5000; i++ {
		if len(h) == 0 || r.Intn(3) > 0 {
			seq++
			// New procs never precede the last pop, as in the engine.
			h.push(&Proc{now: last.now + Time(r.Intn(4)), seq: seq})
			continue
		}
		p := h.pop()
		if p.now < last.now || (p.now == last.now && p.seq < last.seq) {
			t.Fatalf("pop %d: (%v, %d) after (%v, %d)", i, p.now, p.seq, last.now, last.seq)
		}
		for _, q := range h {
			if q.now < p.now || (q.now == p.now && q.seq < p.seq) {
				t.Fatalf("pop %d: (%v, %d) left behind (%v, %d)", i, q.now, q.seq, p.now, p.seq)
			}
		}
		last = p
	}
}
