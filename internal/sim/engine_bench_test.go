package sim

import "testing"

// BenchmarkYieldSoloProc measures the per-advance cost when one proc owns
// the timeline — the common case for single-threaded kernels, served by the
// in-coroutine fast path in Proc.yield.
func BenchmarkYieldSoloProc(b *testing.B) {
	eng := NewEngine()
	eng.Go("solo", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(Nanosecond)
		}
	})
	b.ResetTimer()
	eng.Run()
}

// BenchmarkYieldContended measures the per-advance cost when two procs tick
// in lock-step, forcing a coroutine hand-off through Run on every yield.
func BenchmarkYieldContended(b *testing.B) {
	eng := NewEngine()
	for w := 0; w < 2; w++ {
		eng.Go("w", 0, func(p *Proc) {
			for i := 0; i < b.N/2; i++ {
				p.Advance(Nanosecond)
			}
		})
	}
	b.ResetTimer()
	eng.Run()
}

// BenchmarkYieldContended8 is BenchmarkYieldContended with eight procs in
// lock-step: every yield hands off through a deeper heap.
func BenchmarkYieldContended8(b *testing.B) {
	eng := NewEngine()
	for w := 0; w < 8; w++ {
		eng.Go("w", 0, func(p *Proc) {
			for i := 0; i < b.N/8; i++ {
				p.Advance(Nanosecond)
			}
		})
	}
	b.ResetTimer()
	eng.Run()
}
