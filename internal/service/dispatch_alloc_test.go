package service

import (
	"fmt"
	"testing"

	"optanestudy/internal/hottier"
	"optanestudy/internal/platform"
	"optanestudy/internal/sim"
	"optanestudy/internal/stats"
)

// dispatchHarness drives the worker internals — push, popN, executeBatch
// — exactly as the worker loop does, so the allocation behavior it
// measures is the steady-state dispatch path's: the group-commit path at
// depth > 1, the per-op path at depth 1.
type dispatchHarness struct {
	p     *platform.Platform
	cfg   Config
	shard Shard
	st    *serveState
	sh    *shardState
	sc    *opScratch
	batch []request
	n     int64
	// gets makes every admitted request a GET (the read-path variants).
	gets bool
}

func newDispatchHarness(tb testing.TB, batchSize int) *dispatchHarness {
	return newDispatchHarnessOpts(tb, batchSize, "pmemkv", 0)
}

// newDispatchHarnessOpts builds the harness over a chosen backend, optionally
// fronted by a DRAM hot tier of cacheBytes (0 = uncached). cacheBytes large
// enough for the whole 400-record keyspace pins the cached-HIT path;
// smaller caches keep the tier churning and pin the miss-FILL path
// (victim scan, detach, NT slot install) instead.
func newDispatchHarnessOpts(tb testing.TB, batchSize int, backend string, cacheBytes int64) *dispatchHarness {
	tb.Helper()
	pcfg := platform.DefaultConfig()
	pcfg.TrackData = true
	pcfg.XP.Wear.Enabled = false
	p := platform.MustNew(pcfg)
	tb.Cleanup(p.Close)
	spec := BackendSpec{Media: "optane", Keys: 400, KeySize: 16, ValSize: 128, ScanSpan: 200}
	be, err := NewBackend(p, backend, spec)
	if err != nil {
		tb.Fatal(err)
	}
	if cacheBytes > 0 {
		tier, err := hottier.New(p, be, hottier.Config{
			Name: "dispatch", CapacityBytes: cacheBytes, RecordBytes: spec.ValSize,
			TenantSpan: spec.Keys, Seed: 7,
		})
		if err != nil {
			tb.Fatal(err)
		}
		be = tier
	}
	plog, err := NewAppendLog(p, BackendSpec{Media: "optane", NamePrefix: "dispatch-log"}, 1, 1<<20)
	if err != nil {
		tb.Fatal(err)
	}
	h := &dispatchHarness{
		p: p,
		cfg: Config{
			KeySize: spec.KeySize, ValSize: spec.ValSize, ScanLen: 16,
			BatchSize: batchSize,
		},
		shard: Shard{Backend: be, Workers: 1, PutLog: plog},
		st: &serveState{
			shards:  make([]shardState, 1),
			tenants: []TenantStats{{Name: "t", Latency: stats.NewHistogram()}},
		},
		sc:    newOpScratch(Config{KeySize: spec.KeySize, ValSize: spec.ValSize}, 1),
		batch: make([]request, 0, batchSize),
	}
	h.st.shards[0] = shardState{
		occ:     sim.NewBoundedQueue(32 * batchSize),
		latency: stats.NewHistogram(),
	}
	h.sh = &h.st.shards[0]
	return h
}

// step is one worker wakeup: admit a full group (a 0.7/0.3 put/get mix over
// a rolling key window, or all GETs), drain it, and execute it — as one
// group commit at depth > 1, as a single op at depth 1.
func (h *dispatchHarness) step(ctx *platform.MemCtx) error {
	proc := ctx.Proc()
	now := proc.Now()
	for i := 0; i < h.cfg.BatchSize; i++ {
		h.n++
		op := OpPut
		if h.gets || h.n%10 < 3 {
			op = OpGet
		}
		h.sh.push(request{
			tenant: 0, op: op, key: h.n * 31 % 400,
			arrival: now, measured: true,
		})
	}
	h.batch = h.sh.popN(proc.Now(), h.cfg.BatchSize, h.batch[:0])
	return executeBatch(ctx, h.cfg, &h.shard, 0, h.batch, h.sc, h.sh, h.st)
}

// The steady-state batched dispatch path — admission, batch drain, key and
// value rendering, backend reads, group-commit journaling, latency
// recording — must not allocate. Warmup lets every amortized structure
// (queue rings, the appender's staging mirror, histogram buckets, load
// windows, the XPBuffer's entry pool) reach its high-water mark; after
// that, a dispatched op that touches the Go heap is a regression.
func TestDispatchZeroAlloc(t *testing.T) {
	// cached-hit: the tier holds the whole keyspace, so warmed-up GETs stay
	// in DRAM. miss-fill: the tier holds 1/4 of it, so steady state keeps
	// evicting and installing slots. lsmkv pins DB.GetInto (memtable probe
	// + SST binary search into the per-DB scratch). The depth1-* variants
	// drive the per-op path with GETs only — the read-heavy serving mix's
	// hot path; the depth1-put-* variants drive it with the 0.7/0.3
	// put/get mix, whose sub-line NT stores pass the write-combining
	// buffer.
	variants := []struct {
		name    string
		depth   int
		gets    bool
		backend string
		cache   int64
	}{
		{"pmemkv", 8, false, "pmemkv", 0},
		{"cached-hit", 8, false, "pmemkv", 400 * 128},
		{"miss-fill", 8, false, "pmemkv", 100 * 128},
		{"lsmkv-getinto", 8, false, "lsmkv", 0},
		{"depth1-pmemkv", 1, true, "pmemkv", 0},
		{"depth1-cached-hit", 1, true, "pmemkv", 400 * 128},
		{"depth1-lsmkv", 1, true, "lsmkv", 0},
		{"depth1-put-pmemkv", 1, false, "pmemkv", 0},
		{"depth1-put-lsmkv", 1, false, "lsmkv", 0},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			h := newDispatchHarnessOpts(t, v.depth, v.backend, v.cache)
			h.gets = v.gets
			var avg float64
			var stepErr error
			h.p.Go("dispatch", 0, func(ctx *platform.MemCtx) {
				for i := 0; i < 400; i++ { // warmup: past the queue-ring trim cycle
					if stepErr = h.step(ctx); stepErr != nil {
						return
					}
				}
				avg = testing.AllocsPerRun(100, func() {
					if err := h.step(ctx); err != nil && stepErr == nil {
						stepErr = err
					}
				})
			})
			h.p.Run()
			if stepErr != nil {
				t.Fatal(stepErr)
			}
			if avg != 0 {
				t.Fatalf("steady-state dispatch allocates: %.2f allocs per batch, want 0", avg)
			}
			if h.sh.completed == 0 || h.st.tenants[0].Completed != h.sh.completed {
				t.Fatalf("harness recorded %d/%d completions", h.sh.completed, h.st.tenants[0].Completed)
			}
			if tier, ok := h.shard.Backend.(*hottier.Tier); ok {
				c := tier.Counters()
				if v.cache >= 400*128 && c.Hits == 0 {
					t.Fatal("cached-hit variant never hit the tier")
				}
				if v.cache < 400*128 && c.Evictions == 0 {
					t.Fatal("miss-fill variant never evicted")
				}
			}
		})
	}
}

// BenchmarkDispatchAllocs reports the dispatch path's per-op cost and
// allocation rate at the sweep's batch depths; allocs/op must be 0.
func BenchmarkDispatchAllocs(b *testing.B) {
	for _, bk := range []struct {
		name  string
		cache int64
	}{{"uncached", 0}, {"cached", 400 * 128}} {
		for _, depth := range []int{8, 32} {
			b.Run(fmt.Sprintf("%s/batch=%d", bk.name, depth), func(b *testing.B) {
				h := newDispatchHarnessOpts(b, depth, "pmemkv", bk.cache)
				var stepErr error
				h.p.Go("dispatch", 0, func(ctx *platform.MemCtx) {
					for i := 0; i < 400; i++ {
						if stepErr = h.step(ctx); stepErr != nil {
							return
						}
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := h.step(ctx); err != nil {
							stepErr = err
							return
						}
					}
				})
				h.p.Run()
				if stepErr != nil {
					b.Fatal(stepErr)
				}
			})
		}
	}
}
