// Package service is a simulated request-serving frontend: open-loop
// traffic generation against the repository's KV backends.
//
// Everything else in the study is closed-loop — a fixed thread count
// hammers the platform and reports mean latency or bandwidth. The paper's
// third best practice (limit the number of threads contending for a DIMM)
// is fundamentally a load-versus-tail-latency phenomenon, so this package
// models the serving side: arrival processes (deterministic-rate, Poisson,
// bursty) generate timestamped requests with per-tenant Zipf or uniform
// key mixes; a dispatcher admits them to a bounded FIFO queue (full queue
// ⇒ load shedding); a pool of simulated worker threads executes GET / PUT
// / SCAN against the backend; and per-tenant end-to-end latency — queueing
// delay plus service time — lands in stats.Histogram tail percentiles.
// Load sweeps (sweep.go) step offered load across a grid to produce the
// throughput-versus-p50/p99 curve and locate the saturation knee.
package service

import (
	"errors"
	"fmt"

	"optanestudy/internal/fault"
	"optanestudy/internal/platform"
	"optanestudy/internal/sim"
	"optanestudy/internal/stats"
	"optanestudy/internal/telemetry"
	"optanestudy/internal/workload"
)

// Op is a request kind.
type Op int

// Request kinds.
const (
	OpGet Op = iota
	OpPut
	OpScan
	OpDel
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpScan:
		return "SCAN"
	default:
		return "DEL"
	}
}

// Tenant is one traffic class sharing the frontend. Tenants draw keys from
// disjoint key ranges so popularity skew is per-tenant.
type Tenant struct {
	Name string
	// Theta is the Zipfian skew of the tenant's key popularity, in (0, 1);
	// 0 selects uniform.
	Theta float64
	// HotFrac > 0 selects a shifting-hotspot key mix instead (ignoring
	// Theta): HotFrac of draws land in a window of HotKeys consecutive ids
	// that relocates every HotPeriod draws (workload.ShiftingHotspot) —
	// the moving-skew mix cluster sweeps use to drive load onto one shard
	// at a time.
	HotFrac   float64
	HotKeys   int64
	HotPeriod int64
}

// Shard is one dispatch target of a serving run: its own backend, bounded
// admission queue and worker pool, with the workers placed on an explicit
// socket. A single-node run is one Shard; the cluster layer builds one
// Shard per placement slot.
type Shard struct {
	Backend Backend
	// Workers is this shard's pool size.
	Workers int
	// QueueCap bounds this shard's admission queue (default 32×Workers).
	QueueCap int
	// Socket places this shard's worker threads.
	Socket int
	// PutLog, when set, switches this shard's PUTs to write-behind logging
	// on per-worker appenders (indexed by shard-local worker id).
	PutLog *AppendLog
	// Repl, when set, replicates this shard: every logged PUT is mirrored
	// through it (shipping synchronously while the standby is synced), and
	// fault events fail the shard over through it. Requires PutLog.
	Repl Replicator
}

// Config configures one open-loop serving run.
type Config struct {
	Platform *platform.Platform
	// Socket places the dispatcher (and the fault-driver and trace-sampler
	// procs); each Shard places its own workers.
	Socket int
	// Arrival is the seeded offered-load process.
	Arrival Arrival
	// Tenants share the offered load equally (round-robin-free random
	// pick); at least one is required.
	Tenants []Tenant
	// Keys is the per-tenant key-space size; tenant i owns global ids
	// [i*Keys, (i+1)*Keys).
	Keys             int64
	KeySize, ValSize int
	// GetFrac/PutFrac/ScanFrac/DelFrac select the op mix; they must sum
	// to ~1.
	GetFrac, PutFrac, ScanFrac, DelFrac float64
	// ScanLen is the number of consecutive keys a SCAN reads.
	ScanLen int
	// Shards are the dispatch targets (at least one): each request goes
	// to its shard's own bounded admission queue — a request arriving at
	// a full queue is shed (counted, not served) — and worker pool.
	Shards []Shard
	// Route maps a request's global key id to a shard index. Required when
	// len(Shards) > 1; a single shard routes everything to shard 0.
	Route func(key int64) int
	// Duration is the measured window; Warmup precedes it (requests
	// arriving during warmup are served but not recorded).
	Duration sim.Time
	Warmup   sim.Time
	// Poll is the idle worker's queue re-check interval (default 200 ns).
	Poll sim.Time
	// BatchSize, when > 1, switches workers to group-commit dispatch: a
	// worker drains up to BatchSize admitted requests per wakeup and
	// journals every logged PUT in the group through ONE fence (a
	// pmem.Appender group commit), so the fence cost amortizes across the
	// batch. 0 or 1 drains one request per wakeup, and a logged PUT pays
	// its own fence.
	BatchSize int
	// BatchLinger bounds the latency a partially-filled batch may add: a
	// worker that drained fewer than BatchSize requests waits at most
	// BatchLinger for stragglers before committing what it has. 0 commits
	// short batches immediately.
	BatchLinger sim.Time
	Seed        uint64
	// Faults is the run's deterministic fault schedule, sorted by time on
	// the serving clock (warmup included — an event at cfg.Warmup + t
	// fires t into the measured window). Crash, Leave and Join events
	// require the target shard to carry a Replicator; Stall only needs the
	// shard to exist. Empty (the default) keeps every fault branch off the
	// hot path's nil checks, so fault-free runs are byte-identical to
	// pre-fault builds.
	Faults []fault.Event
	// Detect is the crash-detection delay: a failover starts Detect after
	// the crash instant (default 0 — promotion starts immediately).
	Detect sim.Time
	// Recorder, when non-nil, traces every measured request's phase span
	// (queue-wait → batch-wait → service → persist) and, when its
	// sampling interval is set, spawns a read-only timeline sampler proc.
	// nil (the default) keeps the dispatch hot path branch-cheap and
	// allocation-free — span structs are only built behind the nil check.
	Recorder *telemetry.Recorder
	// CacheStats, when set alongside Recorder, snapshots the DRAM tier's
	// cumulative read hits/misses so spans attribute each GET as a tier
	// hit or miss (the counters are differenced around the GET).
	CacheStats func() (hits, misses int64)
}

// TenantStats is one tenant's outcome over the measured window.
type TenantStats struct {
	Name      string
	Offered   int64 // requests generated
	Dropped   int64 // shed at the admission queue
	Completed int64 // served to completion
	// Latency is the end-to-end distribution (ns): queueing delay plus
	// backend service time.
	Latency *stats.Histogram
}

// ShardStats is one dispatch target's outcome over the measured window.
type ShardStats struct {
	Offered, Dropped, Completed int64
	// Latency is the shard's end-to-end distribution; Result.Latency is
	// the cross-shard stats.Histogram merge.
	Latency *stats.Histogram
	// WorkerBusy is the shard pool's cumulative in-service time.
	WorkerBusy sim.Time
	// QueueResidency integrates this shard's queue occupancy over time;
	// MaxQueueLen is its high-water mark.
	QueueResidency sim.Time
	MaxQueueLen    int
}

// Result is the outcome of one serving run.
type Result struct {
	Tenants []TenantStats
	// Shards is the per-dispatch-target breakdown; a single-node run
	// reports one entry.
	Shards []ShardStats
	// Latency merges every tenant's end-to-end histogram.
	Latency *stats.Histogram
	// Window is the measured window (= Config.Duration).
	Window sim.Time
	// Offered/Dropped/Completed aggregate the tenants.
	Offered, Dropped, Completed int64
	// OfferedRate and AchievedRate are ops per simulated second over the
	// window.
	OfferedRate, AchievedRate float64
	// WorkerBusy is cumulative in-service worker time (utilization =
	// WorkerBusy / (Workers × Window)).
	WorkerBusy sim.Time
	// QueueResidency is the integral of queue occupancy over time (the
	// aggregate queueing delay); MaxQueueLen is the high-water mark.
	QueueResidency sim.Time
	MaxQueueLen    int
	// Failover is the per-shard fault/failover breakdown, indexed like
	// Shards; nil when the run configured no replication and no faults.
	Failover []FailoverStats
}

// Utilization returns the worker pool's busy fraction over the window.
func (r *Result) Utilization(workers int) float64 {
	if workers <= 0 || r.Window <= 0 {
		return 0
	}
	return float64(r.WorkerBusy) / (float64(workers) * float64(r.Window))
}

// request is one admitted unit of work. Admission is immediate (a full
// queue sheds instead of delaying), so the arrival timestamp is also the
// enqueue timestamp.
type request struct {
	tenant   int
	op       Op
	key      int64 // global key id
	arrival  sim.Time
	drained  sim.Time // stamped by popN: when a worker took the request
	measured bool
}

// keyGen draws key ids from one tenant's range.
type keyGen struct {
	base int64
	n    int64
	zipf *workload.Zipf
	hot  *workload.ShiftingHotspot
	rng  *sim.RNG
}

func (g *keyGen) next() int64 {
	switch {
	case g.hot != nil:
		return g.base + g.hot.Next()
	case g.zipf != nil:
		return g.base + g.zipf.Next()
	}
	return g.base + g.rng.Int63n(g.n)
}

// shardState is one shard's queue and accounting. Procs run one at a time
// and only hand off at explicit time advances, so no locking. The request
// payloads live in a local ring; admission capacity, the occupancy-time
// integral and the depth watermark are delegated to a pull-mode
// sim.BoundedQueue (PushOpen on admit, PopN on worker drain), whose
// accounting is exactly the arithmetic this struct used to inline.
type shardState struct {
	queue     []request
	head      int
	idx       int // shard index, for span attribution
	occ       *sim.BoundedQueue
	busy      sim.Time
	offered   int64
	dropped   int64
	completed int64
	latency   *stats.Histogram
	// fo is the shard's fault/failover state; nil on fault-free shards,
	// keeping the dispatch and worker hot paths one nil-check away from
	// their pre-fault form.
	fo *failoverState
}

// serveState is the dispatcher/worker shared state.
type serveState struct {
	shards  []shardState
	closed  bool
	tenants []TenantStats
	// rec is the trace recorder (nil = tracing off, the hot-path default);
	// cacheStats is the GET hit/miss attribution snapshot; warmEnd anchors
	// fault/failover event timestamps to the measured window's clock.
	rec        *telemetry.Recorder
	cacheStats func() (hits, misses int64)
	warmEnd    sim.Time
}

// full reports whether the admission queue is at capacity (the shed
// condition).
func (s *shardState) full() bool { return s.occ.Len() >= s.occ.Cap() }

func (s *shardState) push(r request) {
	if !s.occ.PushOpen(r.arrival) {
		panic("service: push on a full shard queue")
	}
	s.queue = append(s.queue, r)
}

// popN drains up to n admitted requests at time now, appending them to
// dst (which the caller sizes to its batch capacity, so the steady state
// never reallocates) and closing each one's queue residency.
func (s *shardState) popN(now sim.Time, n int, dst []request) []request {
	k := s.occ.PopN(now, n)
	for i := 0; i < k; i++ {
		r := s.queue[s.head]
		r.drained = now
		dst = append(dst, r)
		s.head++
	}
	if s.head > 1024 && s.head*2 >= len(s.queue) {
		s.queue = append(s.queue[:0], s.queue[s.head:]...)
		s.head = 0
	}
	return dst
}

// Serve runs one open-loop serving experiment on the platform. The
// platform must already hold the preloaded backend(s); Serve spawns the
// dispatcher and worker procs and runs the simulation to completion
// (admitted requests are drained past the deadline so tails are not
// truncated).
//
// There is one dispatch path for every configuration: the dispatcher
// draws each request's tenant, op and key, routes the key through
// cfg.Route to a shard, and admits the request to that shard's bounded
// queue or sheds it. A single-node run is simply one shard. The key is
// drawn before the admission check, so a shed request still consumes its
// draw — open-loop clients do not know the queue is full when they pick a
// key.
func Serve(cfg Config) (*Result, error) {
	if cfg.Platform == nil {
		return nil, errors.New("service: platform required")
	}
	shards := cfg.Shards
	if len(shards) == 0 {
		return nil, errors.New("service: at least one shard required")
	}
	if len(shards) > 1 && cfg.Route == nil {
		return nil, errors.New("service: a route function is required with more than one shard")
	}
	if cfg.Arrival == nil {
		return nil, errors.New("service: arrival process required")
	}
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("service: at least one tenant required")
	}
	if cfg.Keys < 1 || cfg.KeySize < 8 || cfg.Duration <= 0 {
		return nil, errors.New("service: bad keyspace or duration")
	}
	total := cfg.GetFrac + cfg.PutFrac + cfg.ScanFrac + cfg.DelFrac
	if total <= 0 {
		return nil, errors.New("service: op mix fractions must sum > 0")
	}
	caps := make([]int, len(shards))
	for i := range shards {
		sh := &shards[i]
		if sh.Backend == nil {
			return nil, fmt.Errorf("service: shard %d has no backend", i)
		}
		if sh.Workers < 1 {
			return nil, fmt.Errorf("service: shard %d needs at least one worker", i)
		}
		if sh.PutLog != nil && sh.PutLog.Workers() < sh.Workers {
			return nil, errors.New("service: append log has fewer per-worker logs than workers")
		}
		caps[i] = sh.QueueCap
		if caps[i] < 1 {
			caps[i] = 32 * sh.Workers
		}
	}
	if cfg.ScanLen < 1 {
		cfg.ScanLen = 16
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * sim.Nanosecond
	}
	if err := validateFaults(&cfg, shards); err != nil {
		return nil, err
	}

	p := cfg.Platform
	st := &serveState{
		shards:     make([]shardState, len(shards)),
		tenants:    make([]TenantStats, len(cfg.Tenants)),
		rec:        cfg.Recorder,
		cacheStats: cfg.CacheStats,
	}
	for i := range st.shards {
		st.shards[i].idx = i
		st.shards[i].latency = stats.NewHistogram()
		st.shards[i].occ = sim.NewBoundedQueue(caps[i])
	}
	// Fault machinery exists only on shards that need it: replicated
	// shards and stall targets. Everything else keeps a nil fo.
	hasFaults := false
	for i := range shards {
		if shards[i].Repl != nil {
			st.shards[i].fo = newFailoverState(shards[i].Repl)
			hasFaults = true
		}
	}
	for _, ev := range cfg.Faults {
		if st.shards[ev.Shard].fo == nil {
			st.shards[ev.Shard].fo = newFailoverState(nil)
			hasFaults = true
		}
	}
	gens := make([]*keyGen, len(cfg.Tenants))
	for i, tn := range cfg.Tenants {
		st.tenants[i] = TenantStats{Name: tn.Name, Latency: stats.NewHistogram()}
		g := &keyGen{base: int64(i) * cfg.Keys, n: cfg.Keys}
		seed := cfg.Seed + uint64(i)*7349 + 11
		switch {
		case tn.HotFrac > 0:
			hotKeys, period := tn.HotKeys, tn.HotPeriod
			if hotKeys < 1 || hotKeys > cfg.Keys || period < 1 || tn.HotFrac > 1 {
				return nil, fmt.Errorf("service: tenant %q has a bad hotspot mix (frac=%g keys=%d period=%d)",
					tn.Name, tn.HotFrac, hotKeys, period)
			}
			g.hot = workload.NewShiftingHotspot(cfg.Keys, hotKeys, period, tn.HotFrac, seed)
		case tn.Theta > 0:
			g.zipf = workload.NewZipf(cfg.Keys, tn.Theta, seed)
		default:
			g.rng = sim.NewRNG(seed)
		}
		gens[i] = g
	}

	start := p.Now()
	warmEnd := start + cfg.Warmup
	st.warmEnd = warmEnd
	deadline := warmEnd + cfg.Duration
	getCut := cfg.GetFrac / total
	putCut := (cfg.GetFrac + cfg.PutFrac) / total
	scanCut := (cfg.GetFrac + cfg.PutFrac + cfg.ScanFrac) / total

	// Dispatcher: walks arrival timestamps, stamps each request with its
	// tenant, op and key, routes it to a shard, and either admits it to
	// that shard's queue or sheds it.
	var runErr error
	p.Go("serve-arrivals", cfg.Socket, func(ctx *platform.MemCtx) {
		proc := ctx.Proc()
		pick := sim.NewRNG(cfg.Seed*0x9E37 + 0xA441)
		t := start
		for {
			t += cfg.Arrival.Next()
			if t >= deadline {
				break
			}
			proc.AdvanceTo(t)
			ti := pick.Intn(len(cfg.Tenants))
			var op Op
			switch u := pick.Float64(); {
			case u < getCut:
				op = OpGet
			case u < putCut:
				op = OpPut
			case u < scanCut || cfg.DelFrac <= 0:
				// The DelFrac guard keeps a zero delete fraction exactly
				// delete-free (scanCut can round a hair below 1.0).
				op = OpScan
			default:
				op = OpDel
			}
			measured := t >= warmEnd
			if measured {
				st.tenants[ti].Offered++
			}
			key := gens[ti].next()
			si := 0
			if cfg.Route != nil {
				si = cfg.Route(key)
			}
			if si < 0 || si >= len(st.shards) {
				runErr = fmt.Errorf("service: route sent key %d to shard %d of %d", key, si, len(st.shards))
				break
			}
			sh := &st.shards[si]
			if measured {
				sh.offered++
			}
			if sh.full() {
				if measured {
					st.tenants[ti].Dropped++
					sh.dropped++
					if fo := sh.fo; fo != nil && fo.inWindow {
						fo.st.ShedWindow++
					}
					st.rec.RecordShed(ti, si)
				}
				continue
			}
			sh.push(request{tenant: ti, op: op, key: key, arrival: t, measured: measured})
		}
		st.closed = true
	})

	// Workers: per-shard drain-execute loops. An idle worker re-polls its
	// shard's queue every cfg.Poll; after the dispatcher closes, workers
	// drain the backlog so admitted requests always complete. Each wakeup
	// drains up to depth = max(cfg.BatchSize, 1) requests; depth 1 is the
	// one-request-per-wakeup loop, deeper groups journal their logged PUTs
	// through one group commit (see executeBatch).
	depth := max(cfg.BatchSize, 1)
	for si := range shards {
		si := si
		shard := &shards[si]
		sh := &st.shards[si]
		for w := 0; w < shard.Workers; w++ {
			w := w
			p.Go(fmt.Sprintf("serve-s%dw%d", si, w), shard.Socket, func(ctx *platform.MemCtx) {
				proc := ctx.Proc()
				// popN never drains more than the queue holds, so a
				// depth past the queue cap needs no larger buffers.
				batchCap := min(depth, sh.occ.Cap())
				sc := newOpScratch(cfg, batchCap)
				batch := make([]request, 0, batchCap)
				fo := sh.fo
				for runErr == nil {
					if fo != nil && fo.blocked(proc.Now()) {
						// Shard storage is down or stalled: the pool
						// survives (the frontend lives on) but cannot
						// serve until promotion or the stall deadline.
						proc.Sleep(cfg.Poll)
						continue
					}
					batch = sh.popN(proc.Now(), depth, batch[:0])
					if len(batch) == 0 {
						if st.closed {
							return
						}
						proc.Sleep(cfg.Poll)
						continue
					}
					// Linger for stragglers when the batch came up short —
					// but the linger deadline runs from the OLDEST drained
					// request's arrival, so a request is never held more
					// than BatchLinger past its arrival before execution
					// starts. Under backlog the oldest request has already
					// aged past the deadline and the group commits
					// immediately: linger adds latency only at light load,
					// and at most BatchLinger of it. A depth-1 drain is
					// never short, so it never lingers.
					if len(batch) < depth && cfg.BatchLinger > 0 && !st.closed {
						if dl := batch[0].arrival + cfg.BatchLinger; dl > proc.Now() {
							proc.Sleep(dl - proc.Now())
							batch = sh.popN(proc.Now(), depth-len(batch), batch)
						}
					}
					t0 := proc.Now()
					if err := executeBatch(ctx, cfg, shard, w, batch, sc, sh, st); err != nil {
						runErr = err
						return
					}
					sh.busy += proc.Now() - t0
				}
			})
		}
	}
	if len(cfg.Faults) > 0 {
		runFaultDriver(p, cfg, shards, st, &runErr)
	}
	// Timeline sampler: a read-only proc waking at the recorder's fixed
	// sim-time interval over the measured window, snapshotting cumulative
	// counters. It mutates nothing the serving procs observe, so traced
	// results equal untraced ones; and everything it reads derives from
	// sim time, so traced output is byte-identical at any -parallel width.
	if st.rec != nil && st.rec.Interval() > 0 {
		iv := st.rec.Interval()
		p.Go("trace-sampler", cfg.Socket, func(ctx *platform.MemCtx) {
			proc := ctx.Proc()
			for t := warmEnd + iv; t <= deadline; t += iv {
				proc.AdvanceTo(t)
				st.sample(t-warmEnd, t)
			}
		})
	}

	p.Run()
	if runErr != nil {
		return nil, runErr
	}

	res := &Result{
		Tenants: st.tenants,
		Shards:  make([]ShardStats, len(st.shards)),
		Latency: stats.NewHistogram(),
		Window:  cfg.Duration,
	}
	for i := range st.shards {
		sh := &st.shards[i]
		res.Shards[i] = ShardStats{
			Offered: sh.offered, Dropped: sh.dropped, Completed: sh.completed,
			Latency: sh.latency, WorkerBusy: sh.busy,
			QueueResidency: sh.occ.OccupancyTime(), MaxQueueLen: sh.occ.MaxLen(),
		}
		res.WorkerBusy += sh.busy
		res.QueueResidency += sh.occ.OccupancyTime()
		if sh.occ.MaxLen() > res.MaxQueueLen {
			res.MaxQueueLen = sh.occ.MaxLen()
		}
	}
	for i := range st.tenants {
		res.Offered += st.tenants[i].Offered
		res.Dropped += st.tenants[i].Dropped
		res.Completed += st.tenants[i].Completed
		res.Latency.Merge(st.tenants[i].Latency)
	}
	res.OfferedRate = float64(res.Offered) / cfg.Duration.Seconds()
	res.AchievedRate = float64(res.Completed) / cfg.Duration.Seconds()
	if hasFaults {
		res.Failover = make([]FailoverStats, len(st.shards))
		for i := range st.shards {
			if fo := st.shards[i].fo; fo != nil {
				res.Failover[i] = fo.st
			} else {
				res.Failover[i] = FailoverStats{WindowLatency: stats.NewHistogram()}
			}
		}
	}
	return res, nil
}

// opScratch is one worker's reusable key/value rendering buffers: the
// dispatch hot path renders into these instead of allocating per op
// (backends copy on insert, so reuse across requests is safe). Pinned at
// zero allocations per op by TestDispatchZeroAlloc. edges is the traced
// batch path's per-op execution-interval buffer (nil when tracing is
// off), sized to the batch so the steady state never reallocates.
type opScratch struct {
	key, val []byte
	edges    []opEdge
}

// opEdge is one batched op's execution interval, buffered so logged PUTs'
// spans can be closed at the group's commit fence (traced runs only).
type opEdge struct {
	start, end sim.Time
}

func newOpScratch(cfg Config, batchCap int) *opScratch {
	sc := &opScratch{key: make([]byte, cfg.KeySize), val: make([]byte, cfg.ValSize)}
	if cfg.Recorder != nil && cfg.BatchSize > 1 {
		sc.edges = make([]opEdge, 0, batchCap)
	}
	return sc
}

// record books one completed request at time end.
func (st *serveState) record(sh *shardState, req request, end sim.Time) {
	if fo := sh.fo; fo != nil && fo.inWindow {
		if fo.noteCompletion(req, end, sh.occ.Len() == 0) {
			st.event("caught-up", sh.idx, end)
		}
	}
	if !req.measured {
		return
	}
	lat := (end - req.arrival).Nanoseconds()
	st.tenants[req.tenant].Latency.Add(lat)
	st.tenants[req.tenant].Completed++
	sh.completed++
	sh.latency.Add(lat)
}

// attributeCache resolves a traced GET's DRAM-tier outcome from the
// cumulative hit counter snapshotted before the op executed.
func (st *serveState) attributeCache(span *telemetry.OpSpan, req request, hits0 int64) {
	if st.cacheStats == nil || req.op != OpGet {
		return
	}
	if h1, _ := st.cacheStats(); h1 > hits0 {
		span.CacheHit = 1
	} else {
		span.CacheHit = 0
	}
}

// sample snapshots one timeline instant at sim time now; rel is now
// relative to the measured window's start.
func (st *serveState) sample(rel, now sim.Time) {
	s := telemetry.Sample{TNS: int64(rel / sim.Nanosecond)}
	for i := range st.tenants {
		s.Offered += st.tenants[i].Offered
		s.Dropped += st.tenants[i].Dropped
		s.Completed += st.tenants[i].Completed
	}
	s.Shards = make([]telemetry.ShardSample, len(st.shards))
	for i := range st.shards {
		sh := &st.shards[i]
		s.Shards[i] = telemetry.ShardSample{
			Offered: sh.offered, Dropped: sh.dropped, Completed: sh.completed,
			QDepth: sh.occ.Len(), QOccNS: sh.occ.OccupancyTimeAt(now).Nanoseconds(),
		}
	}
	st.rec.Sample(s)
}

// execute runs one request against its shard's backend. A SCAN goes
// through Backend.Scan — lsmkv's native sorted merge walk, or the emulated
// consecutive point reads wrapping inside the tenant's keyspace shard.
// worker is the shard-local worker id (the PutLog appender index).
func execute(ctx *platform.MemCtx, cfg Config, shard *Shard, worker int, req request, sc *opScratch) error {
	KeyInto(sc.key, req.key)
	switch req.op {
	case OpGet:
		shard.Backend.GetInto(ctx, sc.key, sc.val)
		return nil
	case OpPut:
		ValInto(sc.val, req.key+1)
		if shard.PutLog != nil {
			if err := shard.PutLog.Append(ctx, worker, sc.key, sc.val); err != nil {
				return err
			}
			if shard.Repl != nil {
				// Synchronous replication: the PUT completes only after
				// the shipment's fence retires on the standby's DIMMs.
				return shard.Repl.Record(ctx, worker, sc.key, sc.val)
			}
			return nil
		}
		return shard.Backend.Put(ctx, sc.key, sc.val)
	case OpDel:
		return shard.Backend.Delete(ctx, sc.key)
	default:
		shard.Backend.Scan(ctx, sc.key, cfg.ScanLen)
		return nil
	}
}

// executeBatch runs one drained group. At depth 1 (cfg.BatchSize <= 1)
// the group is a single request served on its own: a logged PUT pays
// AppendLog.Append's one fence, and its span has no batch-wait segment.
// Deeper groups run non-logged ops in arrival order, each completing at
// its own execution time; logged PUTs are staged into the worker's group
// commit as they are reached and ALL complete at the commit fence — their
// records are not durable (and so the requests are not answerable) until
// the batch's single fence retires.
func executeBatch(ctx *platform.MemCtx, cfg Config, shard *Shard, worker int, batch []request, sc *opScratch, sh *shardState, st *serveState) error {
	proc := ctx.Proc()
	rec := st.rec
	if cfg.BatchSize <= 1 {
		req := batch[0]
		var hits0 int64
		if rec != nil && st.cacheStats != nil && req.op == OpGet {
			hits0, _ = st.cacheStats()
		}
		if err := execute(ctx, cfg, shard, worker, req, sc); err != nil {
			return err
		}
		end := proc.Now()
		st.record(sh, req, end)
		if rec != nil && req.measured {
			// Queue-wait runs from admission to worker drain and the
			// execution interval is service — except for a logged PUT,
			// whose Append is one fused render-persist-fence sequence,
			// attributed wholly to persist.
			span := telemetry.OpSpan{
				Op: req.op.String(), Tenant: req.tenant, Shard: sh.idx, Worker: worker,
				Key: req.key, CacheHit: -1,
				Arrival: req.arrival, End: end,
				QueueWait: req.drained - req.arrival,
			}
			if req.op == OpPut && shard.PutLog != nil {
				span.Persist, span.HasPersist = end-req.drained, true
			} else {
				span.Service, span.HasService = end-req.drained, true
			}
			st.attributeCache(&span, req, hits0)
			rec.RecordOp(&span)
		}
		return nil
	}
	var bid int64
	if rec != nil {
		bid = rec.NextBatch()
		sc.edges = sc.edges[:0]
	}
	// Pin the log (and its replication mirror) for the whole group: a
	// promotion swapping shard.PutLog mid-batch must not split one
	// Begin/Add/Commit across two logs.
	plog, repl := shard.PutLog, shard.Repl
	logging := false
	for i := range batch {
		req := &batch[i]
		if plog != nil && req.op == OpPut {
			if !logging {
				plog.Begin(worker)
				if repl != nil {
					repl.BatchBegin(worker)
				}
				logging = true
			}
			KeyInto(sc.key, req.key)
			ValInto(sc.val, req.key+1)
			var es sim.Time
			if rec != nil {
				es = proc.Now()
			}
			if err := plog.Add(ctx, worker, sc.key, sc.val); err != nil {
				return err
			}
			if repl != nil {
				if err := repl.BatchAdd(ctx, worker, sc.key, sc.val); err != nil {
					return err
				}
			}
			if rec != nil {
				// Buffer the staging interval: the span closes at the
				// group's single commit fence below.
				sc.edges = append(sc.edges, opEdge{start: es, end: proc.Now()})
			}
			continue // completes at the commit fence below
		}
		var es sim.Time
		var hits0 int64
		if rec != nil {
			es = proc.Now()
			if st.cacheStats != nil && req.op == OpGet {
				hits0, _ = st.cacheStats()
			}
		}
		if err := execute(ctx, cfg, shard, worker, *req, sc); err != nil {
			return err
		}
		end := proc.Now()
		st.record(sh, *req, end)
		if rec != nil && req.measured {
			span := telemetry.OpSpan{
				Op: req.op.String(), Tenant: req.tenant, Shard: sh.idx, Worker: worker,
				Key: req.key, Batch: bid, CacheHit: -1,
				Arrival: req.arrival, End: end,
				QueueWait: req.drained - req.arrival,
				BatchWait: es - req.drained, HasBatchWait: true,
				Service: end - es, HasService: true,
			}
			st.attributeCache(&span, *req, hits0)
			rec.RecordOp(&span)
		}
	}
	if logging {
		if err := plog.Commit(ctx, worker); err != nil {
			return err
		}
		if repl != nil {
			// The group's shipment seals with its own single fence on the
			// standby's DIMMs; every logged PUT in the batch completes
			// after it, so acked means replicated.
			if err := repl.BatchCommit(ctx, worker); err != nil {
				return err
			}
		}
		end := proc.Now()
		ei := 0
		for i := range batch {
			if batch[i].op == OpPut {
				st.record(sh, batch[i], end)
				if rec != nil {
					e := sc.edges[ei]
					ei++
					if req := &batch[i]; req.measured {
						span := telemetry.OpSpan{
							Op: req.op.String(), Tenant: req.tenant, Shard: sh.idx, Worker: worker,
							Key: req.key, Batch: bid, CacheHit: -1,
							Arrival: req.arrival, End: end,
							QueueWait: req.drained - req.arrival,
							BatchWait: e.start - req.drained, HasBatchWait: true,
							Service: e.end - e.start, HasService: true,
							Persist: end - e.end, HasPersist: true,
						}
						rec.RecordOp(&span)
					}
				}
			}
		}
	}
	return nil
}
