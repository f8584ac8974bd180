package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count drops to at most want, or
// the deadline passes; it returns the final count. Reaped goroutines need a
// moment to actually exit after their resume.
func waitGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestStopReapsUnrunProcs covers the teardown contract: procs spawned but
// never run hold a coroutine that has not started; Stop must reap every one
// of them without running its body.
func TestStopReapsUnrunProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		e := NewEngine()
		for j := 0; j < 8; j++ {
			e.Go("parked", 0, func(p *Proc) {
				t.Error("Stop ran the body of a never-run proc")
			})
		}
		e.Stop()
	}
	if after := waitGoroutines(before); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestStopIdempotentAndAfterRun checks Stop after a completed Run is a
// no-op and double-Stop is safe.
func TestStopIdempotentAndAfterRun(t *testing.T) {
	e := NewEngine()
	e.Go("a", 0, func(p *Proc) { p.Advance(10 * Nanosecond) })
	if end := e.Run(); end != 10*Nanosecond {
		t.Fatalf("end = %v", end)
	}
	e.Stop()
	e.Stop()
}

// TestGoAfterStopPanics pins the misuse contract.
func TestGoAfterStopPanics(t *testing.T) {
	e := NewEngine()
	e.Stop()
	defer func() {
		if recover() == nil {
			t.Error("Go on a stopped engine did not panic")
		}
	}()
	e.Go("late", 0, func(p *Proc) {})
}

// TestStopAfterProcPanic: a proc panic surfaces from Run as a *ProcPanic
// carrying the proc's name, value and stack, and leaves the engine
// consistent, so Stop reaps every proc still parked — with their deferred
// cleanup run — and no goroutine leaks.
func TestStopAfterProcPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	cleaned := 0
	for i := 0; i < 100; i++ {
		e := NewEngine()
		for j := 0; j < 8; j++ {
			e.Go("w", 0, func(p *Proc) {
				defer func() { cleaned++ }()
				for {
					p.Advance(Nanosecond)
					if p.ID() == 3 && p.Now() == 5*Nanosecond {
						panic("boom")
					}
				}
			})
		}
		func() {
			defer e.Stop()
			defer func() {
				pp, ok := recover().(*ProcPanic)
				if !ok || pp.Proc != "w" || pp.Now != 5*Nanosecond || pp.Value != "boom" || !strings.Contains(string(pp.Stack), "stop_test.go") {
					t.Fatalf("Run panicked with %#v, want a *ProcPanic from proc w", pp)
				}
			}()
			e.Run()
			t.Fatal("Run returned after a proc panic")
		}()
	}
	if cleaned != 100*8 {
		t.Errorf("deferred cleanup ran %d times, want %d", cleaned, 100*8)
	}
	if after := waitGoroutines(before); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}
