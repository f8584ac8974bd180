package platform

import (
	"runtime"
	"testing"
	"time"
)

// TestHundredPlatformsNoGoroutineLeak is the regression test for the
// platform-per-trial lifecycle the parallel harness depends on: building
// and tearing down 100 platforms — some run to completion, some abandoned
// with spawned-but-never-run threads — must not accumulate goroutines.
func TestHundredPlatformsNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		cfg := DefaultConfig()
		cfg.XP.Wear.Enabled = false
		p := MustNew(cfg)
		ns, err := p.Optane("pm", 0, 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		for th := 0; th < 4; th++ {
			p.Go("w", 0, func(ctx *MemCtx) {
				ctx.PersistNT(ns, 0, 256, nil)
			})
		}
		if i%2 == 0 {
			// The happy path: the trial runs to completion, Close is a
			// no-op.
			p.Run()
		}
		// The error path leaves the 4 threads parked; Close must reap them.
		p.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	after := runtime.NumGoroutine()
	for after > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("goroutines leaked across 100 platforms: %d before, %d after", before, after)
	}
}

// TestCloseAfterPartialUse checks Close on a platform whose engine already
// ran, then had more threads spawned for a second Run that never happened.
func TestCloseAfterPartialUse(t *testing.T) {
	p := newPlatform(t, false)
	ns, err := p.Optane("pm", 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	run1(p, 0, func(ctx *MemCtx) { ctx.Load(ns, 0, 64) })
	p.Go("never-run", 0, func(ctx *MemCtx) { ctx.Load(ns, 0, 64) })
	p.Close()
	p.Close() // idempotent
}

// TestFinishedContextDropsProc checks that a thread's memory context, which
// the platform keeps for Crash, lets go of its proc once the thread
// returns.
func TestFinishedContextDropsProc(t *testing.T) {
	p := newPlatform(t, false)
	defer p.Close()
	ns, err := p.Optane("pm", 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var ctx *MemCtx
	p.Go("w", 0, func(c *MemCtx) {
		ctx = c
		c.PersistNT(ns, 0, 256, nil)
	})
	p.Run()
	if ctx.Proc() != nil {
		t.Error("finished context still holds its proc")
	}
}
