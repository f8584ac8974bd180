package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"optanestudy/internal/cache"
	"optanestudy/internal/dimm"
	"optanestudy/internal/hottier"
	"optanestudy/internal/imc"
	"optanestudy/internal/platform"
	"optanestudy/internal/pmem"
	"optanestudy/internal/sim"
)

// Isolated layer-call timings: each calls one layer's public functions in
// a tight loop, outside any scenario, and reports host ns per call. They
// are the paper's method of measuring each layer alone before composing
// them (§3), applied to the simulator's own host cost.

// layerTiming is one isolated timing: run performs n calls after any
// set-up of its own and returns the host time of the calls alone.
type layerTiming struct {
	name string
	n    int
	run  func(n int) (time.Duration, error)
}

var layerTimings = []layerTiming{
	{"sim.switch_ns", 100_000, simSwitch},
	{"sim.yield_solo_ns", 2_000_000, simSolo},
	{"cache.llc_op_ns", 500_000, llcOps},
	{"dimm.writeline_ns", 500_000, writeLine},
	{"imc.postwrite_ns", 500_000, postWrite},
	{"platform.ntstore_ns", 200_000, ntStore},
	{"platform.load_ns", 200_000, load},
	{"pmem.commit8_ns", 20_000, commit8},
	{"hottier.hit_ns", 200_000, tierHit},
}

// timeLayers runs every timing reps times and returns each one's median
// host ns per call.
func timeLayers(reps int) (map[string]float64, error) {
	out := make(map[string]float64, len(layerTimings))
	for _, lt := range layerTimings {
		vals := make([]float64, reps)
		for r := range vals {
			d, err := lt.run(lt.n)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", lt.name, err)
			}
			vals[r] = float64(d.Nanoseconds()) / float64(lt.n)
		}
		out[lt.name] = median(vals)
	}
	return out, nil
}

// simSwitch ticks two procs in lock-step, so every Sleep hands the
// timeline to the other proc: n switches in all.
func simSwitch(n int) (time.Duration, error) {
	eng := sim.NewEngine()
	for w := 0; w < 2; w++ {
		eng.Go("w", 0, func(p *sim.Proc) {
			for i := 0; i < n/2; i++ {
				p.Sleep(sim.Nanosecond)
			}
		})
	}
	start := time.Now()
	eng.Run()
	return time.Since(start), nil
}

// simSolo sleeps n times on the only proc, which keeps the timeline.
func simSolo(n int) (time.Duration, error) {
	eng := sim.NewEngine()
	eng.Go("solo", 0, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(sim.Nanosecond)
		}
	})
	start := time.Now()
	eng.Run()
	return time.Since(start), nil
}

// llcOps probes, fills and dirties lines over a working set twice the
// capacity of a 256 KB LLC, so half the probes miss and every fill past
// the first pass evicts.
func llcOps(n int) (time.Duration, error) {
	cfg := cache.DefaultConfig()
	cfg.Lines = 4096
	c := cache.New(cfg)
	ws := int64(2 * cfg.Lines)
	start := time.Now()
	for i := 0; i < n; i++ {
		addr := int64(i) * 7919 % ws * 64
		if !c.Present(addr) {
			c.Insert(addr)
		}
		if i%4 == 0 {
			c.MarkDirty(addr, 0, nil)
		}
	}
	return time.Since(start), nil
}

func xpDIMM() *dimm.XPDIMM {
	cfg := dimm.DefaultXPConfig()
	cfg.Wear.Enabled = false
	return dimm.NewXPDIMM(cfg)
}

// writeLine streams sequential 64 B media writes into one XP DIMM.
func writeLine(n int) (time.Duration, error) {
	d := xpDIMM()
	var t sim.Time
	start := time.Now()
	for i := 0; i < n; i++ {
		t = d.WriteLine(t, int64(i%100000)*64)
	}
	return time.Since(start), nil
}

// postWrite posts sequential 64 B writes through one channel's WPQ, each
// issued when the previous one was accepted.
func postWrite(n int) (time.Duration, error) {
	ch := imc.NewChannel(imc.DefaultChannelConfig())
	d := xpDIMM()
	var t sim.Time
	start := time.Now()
	for i := 0; i < n; i++ {
		t, _ = ch.PostWrite(t, d, int64(i%100000)*64)
	}
	return time.Since(start), nil
}

// layerNSBytes sizes the namespace of the platform-level timings.
const layerNSBytes = 64 << 20

// onPlatform runs fn on one proc of a fresh default platform holding a
// layerNSBytes interleaved Optane namespace and returns the host time fn
// reports.
func onPlatform(trackData bool, fn func(ctx *platform.MemCtx, ns *platform.Namespace) (time.Duration, error)) (time.Duration, error) {
	cfg := platform.DefaultConfig()
	cfg.TrackData = trackData
	cfg.XP.Wear.Enabled = false
	p := platform.MustNew(cfg)
	defer p.Close()
	ns, err := p.Optane("pm", 0, layerNSBytes)
	if err != nil {
		return 0, err
	}
	var d time.Duration
	var runErr error
	p.Go("layer", 0, func(ctx *platform.MemCtx) { d, runErr = fn(ctx, ns) })
	p.Run()
	return d, runErr
}

// ntStore issues sequential 256 B non-temporal stores, fencing every 16.
func ntStore(n int) (time.Duration, error) {
	return onPlatform(false, func(ctx *platform.MemCtx, ns *platform.Namespace) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			ctx.NTStore(ns, int64(i%(1<<16))*256, 256, nil)
			if i%16 == 15 {
				ctx.SFence()
			}
		}
		return time.Since(start), nil
	})
}

// load issues 64 B loads at scattered addresses over the namespace, so
// most miss the LLC and reach the DIMMs.
func load(n int) (time.Duration, error) {
	return onPlatform(false, func(ctx *platform.MemCtx, ns *platform.Namespace) (time.Duration, error) {
		lines := int64(layerNSBytes / 64)
		start := time.Now()
		for i := 0; i < n; i++ {
			ctx.Load(ns, int64(i)*7919%lines*64, 64)
		}
		return time.Since(start), nil
	})
}

// commit8 group-commits n batches of eight 120 B records through an
// NT-stream Appender.
func commit8(n int) (time.Duration, error) {
	return onPlatform(true, func(ctx *platform.MemCtx, ns *platform.Namespace) (time.Duration, error) {
		a := pmem.NewAppender(pmem.Whole(ns), pmem.NewPersister(pmem.NTStream))
		rec := make([]byte, 120)
		start := time.Now()
		for i := 0; i < n; i++ {
			a.Begin()
			for j := 0; j < 8; j++ {
				if _, err := a.Add(ctx, rec); err != nil {
					return 0, err
				}
			}
			if err := a.Commit(ctx); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	})
}

// mapBackend is an in-memory hottier backend. The timed reads all hit the
// tier, so its cost never enters the measurement.
type mapBackend map[int64][]byte

func (b mapBackend) Get(_ *platform.MemCtx, key []byte) ([]byte, bool) {
	v, ok := b[int64(binary.LittleEndian.Uint64(key))]
	return v, ok
}

func (b mapBackend) Put(_ *platform.MemCtx, key, val []byte) error {
	b[int64(binary.LittleEndian.Uint64(key))] = append([]byte(nil), val...)
	return nil
}

func (b mapBackend) Scan(_ *platform.MemCtx, _ []byte, n int) int { return n }

func (b mapBackend) Delete(_ *platform.MemCtx, key []byte) error {
	delete(b, int64(binary.LittleEndian.Uint64(key)))
	return nil
}

// tierHit fills a DRAM tier with 256 records of 128 B, then times reads
// that all hit it.
func tierHit(n int) (time.Duration, error) {
	const keys = 256
	cfg := platform.DefaultConfig()
	cfg.TrackData = true
	cfg.XP.Wear.Enabled = false
	p := platform.MustNew(cfg)
	defer p.Close()
	inner := mapBackend{}
	val := make([]byte, 128)
	for id := int64(0); id < keys; id++ {
		inner[id] = val
	}
	t, err := hottier.New(p, inner, hottier.Config{CapacityBytes: 64 << 10, RecordBytes: 128})
	if err != nil {
		return 0, err
	}
	var d time.Duration
	var runErr error
	p.Go("layer", 0, func(ctx *platform.MemCtx) {
		key, dst := make([]byte, 16), make([]byte, 128)
		for id := int64(0); id < keys; id++ { // misses fill the tier
			binary.LittleEndian.PutUint64(key, uint64(id))
			t.GetInto(ctx, key, dst)
		}
		before := t.Counters().Hits
		start := time.Now()
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(key, uint64(i%keys))
			t.GetInto(ctx, key, dst)
		}
		d = time.Since(start)
		if hits := t.Counters().Hits - before; hits != int64(n) {
			runErr = fmt.Errorf("%d of %d reads hit the tier", hits, n)
		}
	})
	p.Run()
	return d, runErr
}
