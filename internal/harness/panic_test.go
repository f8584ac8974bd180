package harness_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"optanestudy/internal/harness"
	"optanestudy/internal/platform"
	"optanestudy/internal/sim"
)

func init() {
	harness.Register(harness.Scenario{
		Name: "test/proc-panic",
		Doc:  "four simulated threads on a real platform; one panics mid-run",
		Defaults: harness.Defaults{
			Threads: 4, Duration: 10 * sim.Microsecond, Seed: 1,
		},
		Run: func(spec harness.Spec) (harness.Trial, error) {
			p := platform.MustNew(platform.DefaultConfig())
			defer p.Close()
			eng := p.Engine()
			for i := 0; i < spec.Threads; i++ {
				eng.Go("worker", 0, func(pr *sim.Proc) {
					for pr.Now() < spec.Duration {
						pr.Advance(sim.Microsecond)
						if pr.ID() == 1 && pr.Now() >= 3*sim.Microsecond {
							panic("injected proc failure")
						}
					}
				})
			}
			eng.Run()
			return harness.Trial{Ops: 1, Sim: eng.Now()}, nil
		},
	})
}

// TestRunSpecsIsolatesProcPanic checks that a simulated thread panicking
// inside one spec becomes that spec's error: the process survives, a
// healthy sibling spec still reports its result, the error names the
// scenario and carries the panic value and the proc's stack, and the
// panicking platform's parked threads are reaped.
func TestRunSpecsIsolatesProcPanic(t *testing.T) {
	specs := []harness.Spec{
		{Scenario: "test/proc-panic", Trials: 3},
		{Scenario: "lattester/seq-read", Duration: 10 * sim.Microsecond},
	}
	harness.RunSpecs(specs, 2) // warm up pool and runtime goroutines
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		out := harness.RunSpecs(specs, 2)
		err := out[0].Err
		if err == nil {
			t.Fatal("panicking spec reported no error")
		}
		for _, want := range []string{"test/proc-panic", `proc "worker" at 3.000us`, "injected proc failure", "panic_test.go"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error lacks %q:\n%v", want, err)
			}
		}
		if out[0].Result != nil {
			t.Error("panicking spec still reported a result")
		}
		if out[1].Err != nil || out[1].Result == nil || out[1].Result.Name != "lattester/seq-read" {
			t.Fatalf("healthy sibling: %+v", out[1])
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	after := runtime.NumGoroutine()
	for after > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}
