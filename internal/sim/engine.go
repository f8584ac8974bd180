package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a simulated thread of execution. Procs advance simulated time via
// AdvanceTo/Sleep; between advances they run exclusively, so shared
// simulation state needs no locking.
//
// Each proc body runs as an iter.Pull coroutine: Run resumes it with next,
// and the proc hands control back by calling its coroutine yield. A
// coroutine switch is a direct goroutine hand-off that bypasses the Go
// scheduler's run queue, which is what makes a contended yield cheap.
type Proc struct {
	eng  *Engine
	name string
	id   int
	now  Time
	seq  uint64

	next    func() (struct{}, bool)
	stop    func()
	yieldFn func(struct{}) bool
}

// Now returns the proc's current simulated time.
func (p *Proc) Now() Time { return p.now }

// Name returns the proc's debug name.
func (p *Proc) Name() string { return p.name }

// ID returns the proc's unique id within its engine (0, 1, 2, ... in spawn
// order). Kernels use it to derive per-thread seeds and address partitions.
func (p *Proc) ID() int { return p.id }

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// AdvanceTo moves the proc's clock to t (no-op if t is in the past) and
// yields to the scheduler so that other procs with earlier clocks can run.
func (p *Proc) AdvanceTo(t Time) {
	if t > p.now {
		p.now = t
	}
	p.yield()
}

// Advance moves the proc's clock forward by d and yields.
func (p *Proc) Advance(d Time) { p.AdvanceTo(p.now + d) }

// Sleep is an alias for Advance, for readability in kernels.
func (p *Proc) Sleep(d Time) { p.Advance(d) }

func (p *Proc) yield() {
	e := p.eng
	// Fast path: if every parked proc is strictly later than this one, the
	// scheduler would hand control straight back, so skip the coroutine
	// switch entirely. Ties must park: FIFO order among equal times is
	// decided by the heap. Touching e.procs and e.now from the proc is safe
	// because procs run exclusively — Run is suspended in p.next until this
	// proc yields or finishes.
	if len(e.procs) == 0 || p.now < e.procs[0].now {
		if p.now > e.now {
			e.now = p.now
		}
		return
	}
	p.seq = e.nextSeq()
	if !p.yieldFn(struct{}{}) {
		// Stop reaped this proc: unwind its body through deferred handlers.
		panic(procStop{})
	}
}

// Engine schedules procs in global simulated-time order. Every live proc
// is either the one running inside Run or parked in procs, so the heap
// alone is the engine's record of unfinished work.
type Engine struct {
	procs   procHeap
	seq     uint64
	nextID  int
	now     Time
	stopped bool
}

// procStop is the sentinel panic Stop uses to unwind a parked proc's
// coroutine through its deferred handlers. Kernels must not recover it.
type procStop struct{}

// ProcPanic is the value Run panics with when a proc body panics: the
// proc's name and simulated time, the original panic value, and the stack
// captured where the proc panicked (the coroutine hand-off would otherwise
// lose it).
type ProcPanic struct {
	Proc  string
	Now   Time
	Value any
	Stack []byte
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("sim: proc %q panicked at %v: %v", pp.Proc, pp.Now, pp.Value)
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the time of the most recently scheduled proc — the global
// simulation clock.
func (e *Engine) Now() Time { return e.now }

func (e *Engine) nextSeq() uint64 {
	e.seq++
	return e.seq
}

// Go spawns a new proc running fn, starting at time start. It may be called
// before Run or from within a running proc (in which case start is normally
// the caller's Now).
func (e *Engine) Go(name string, start Time, fn func(p *Proc)) *Proc {
	if e.stopped {
		panic("sim: Go on a stopped engine")
	}
	p := &Proc{
		eng:  e,
		name: name,
		id:   e.nextID,
		now:  start,
		seq:  e.nextSeq(),
	}
	e.nextID++
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yieldFn = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(procStop); !ok {
					panic(&ProcPanic{Proc: p.name, Now: p.now, Value: r, Stack: debug.Stack()})
				}
			}
		}()
		fn(p)
	})
	e.procs.push(p)
	return p
}

// Run executes the simulation until every proc has finished. It returns the
// final simulated time.
//
// If a proc body panics, Run panics with a *ProcPanic. The panicking proc
// is already finished and off the heap, so the engine stays consistent and
// a deferred Stop reaps every proc still parked.
func (e *Engine) Run() Time {
	if e.stopped {
		panic("sim: Run on a stopped engine")
	}
	for len(e.procs) > 0 {
		p := e.procs.pop()
		if p.now > e.now {
			e.now = p.now
		}
		if _, ok := p.next(); ok {
			e.procs.push(p)
		} else {
			p.release()
		}
	}
	return e.now
}

// release drops a finished proc's coroutine funcs, so a proc kept
// reachable after it returns (a finished thread's memory context) holds
// no closures.
func (p *Proc) release() { p.next, p.stop, p.yieldFn = nil, nil, nil }

// Stop tears the engine down: every live proc is stopped. A proc spawned
// but never run never executes its body; a proc parked mid-simulation sees
// its yield fail and is unwound via a sentinel panic, so it runs no further
// simulation work (deferred cleanup in kernels still executes). Either way
// its coroutine exits. Stop is idempotent and a no-op after a completed
// Run; the engine must not be used afterwards.
func (e *Engine) Stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	for len(e.procs) > 0 {
		p := e.procs.pop()
		p.stop()
		p.release()
	}
}

// String reports scheduler state for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now=%v parked=%d}", e.now, len(e.procs))
}

// procHeap is a binary min-heap of procs ordered by (now, seq): earliest
// time first, FIFO among ties. seq is unique, so the order is total and
// the pop sequence does not depend on the heap's internal layout.
type procHeap []*Proc

func (h procHeap) less(i, j int) bool {
	if h[i].now != h[j].now {
		return h[i].now < h[j].now
	}
	return h[i].seq < h[j].seq
}

func (h *procHeap) push(p *Proc) {
	*h = append(*h, p)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *procHeap) pop() *Proc {
	q := *h
	n := len(q) - 1
	p := q[0]
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	for i := 0; ; {
		least := i
		if l := 2*i + 1; l < n && q.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && q.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	return p
}
