package service

import (
	"fmt"

	"optanestudy/internal/devstat"
	"optanestudy/internal/harness"
	"optanestudy/internal/hottier"
	"optanestudy/internal/platform"
	"optanestudy/internal/pmem"
	"optanestudy/internal/sim"
	"optanestudy/internal/telemetry"
)

// The point-runner core: everything a serving point scenario does that
// does not depend on what it serves through. The single-node point
// scenarios (one shard) and cluster/point (placed, routed shards) read
// these params with the same defaults, reject bad values with the same
// errors, and fold a Serve result into the same base metric map. Each
// runner keeps only its own part: backends, logs and DRAM tiers, plus
// whatever it reports beyond the base metrics.

// PointParams are the params every serving point scenario reads.
type PointParams struct {
	// who heads every error: the scenario family ("service", "cluster").
	who string

	Backend, Media, Mode string
	// Arrival is the process kind; Offered its rate in kops, CycleUS and
	// OnFrac the bursty process's on/off shape.
	Arrival                  string
	Offered, CycleUS, OnFrac float64
	// Tenants each own Keys key ids, drawn per Mix (Theta is the Zipf
	// skew; HotFrac/HotKeys/HotPeriod shape a shifting hotspot).
	Tenants                             int
	Mix                                 string
	Theta, HotFrac                      float64
	Keys, HotKeys, HotPeriod            int64
	KeySize, ValSize, ScanLen           int
	GetFrac, PutFrac, ScanFrac, DelFrac float64
	ScanMode                            string
	PutLog, Devstat                     bool
	QueueCap, Batch                     int
	PollNS, LingerNS                    float64
	PMBytes, DRAMBytes, LLCKB           int64
	// CacheBytes sizes the DRAM tier; Tier is "" (none), "hot" or
	// "memmode", and Check resolves "" to "hot" when CacheBytes > 0.
	// QuotaBytes, Admit and Evict configure a hot tier.
	CacheBytes, QuotaBytes int64
	Tier, Evict            string
	Admit                  int
}

// ReadPointParams reads the shared params from r. who names the scenario
// family in errors; offered is its default offered load (kops).
func ReadPointParams(r *harness.ParamReader, who string, offered float64) *PointParams {
	return &PointParams{
		who:        who,
		Backend:    r.Str("backend", "pmemkv"),
		Media:      r.Str("media", "optane"),
		Mode:       r.Str("mode", "wal-flex"),
		Arrival:    r.Str("arrival", "poisson"),
		Offered:    r.Float("offered", offered),
		CycleUS:    r.Float("cycle", 20),
		OnFrac:     r.Float("onfrac", 0.25),
		Tenants:    r.Int("tenants", 2),
		Theta:      r.Float("theta", 0.99),
		Mix:        r.Str("mix", "split"),
		HotFrac:    r.Float("hotfrac", 0.9),
		HotKeys:    r.Int64("hotkeys", 0),
		HotPeriod:  r.Int64("hotperiod", 2000),
		Keys:       r.Int64("keys", 200),
		KeySize:    r.Int("keysize", 16),
		ValSize:    r.Int("valsize", 128),
		GetFrac:    r.Float("get", 0.75),
		PutFrac:    r.Float("put", 0.2),
		ScanFrac:   r.Float("scan", 0.05),
		DelFrac:    r.Float("del", 0),
		ScanLen:    r.Int("scanlen", 16),
		ScanMode:   r.Str("scanmode", "emulate"),
		PutLog:     r.Bool("putlog", false),
		QueueCap:   r.Int("qcap", 0),
		PollNS:     r.Float("poll", 200),
		Batch:      r.Int("batch", 1),
		LingerNS:   r.Float("linger", 0),
		PMBytes:    r.Int64("pmbytes", 0),
		DRAMBytes:  r.Int64("drambytes", 0),
		CacheBytes: r.Int64("cache", 0),
		QuotaBytes: r.Int64("quota", 0),
		Admit:      r.Int("admit", 1),
		Evict:      r.Str("evict", "clock"),
		Tier:       r.Str("tier", ""),
		LLCKB:      r.Int64("llckb", 0),
		Devstat:    r.Bool("devstat", false),
	}
}

func (pp *PointParams) errorf(format string, args ...any) error {
	return fmt.Errorf(pp.who+": "+format, args...)
}

// Check validates the shared params and resolves the tier.
func (pp *PointParams) Check() error {
	switch pp.Tier {
	case "":
		if pp.CacheBytes > 0 {
			pp.Tier = "hot"
		}
	case "hot":
		if pp.CacheBytes <= 0 {
			return pp.errorf("tier=hot needs a positive cache size, got %d", pp.CacheBytes)
		}
	case "memmode":
		if pp.CacheBytes <= 0 {
			return pp.errorf("tier=memmode needs a positive cache (near-DRAM) size, got %d", pp.CacheBytes)
		}
	default:
		return pp.errorf("unknown tier %q (want hot or memmode)", pp.Tier)
	}
	if pp.LLCKB < 0 {
		return pp.errorf("llckb must be >= 0, got %d", pp.LLCKB)
	}
	if pp.ValSize < 8 {
		// Every value starts with its 8-byte id stamp (ValInto).
		return pp.errorf("valsize must be >= 8, got %d", pp.ValSize)
	}
	if pp.Batch < 1 {
		return pp.errorf("batch size must be >= 1, got %d", pp.Batch)
	}
	if pp.LingerNS < 0 {
		return pp.errorf("linger must be >= 0 ns, got %g", pp.LingerNS)
	}
	if pp.ScanMode != "native" && pp.ScanMode != "emulate" {
		return pp.errorf("unknown scanmode %q (want emulate or native)", pp.ScanMode)
	}
	if pp.Offered <= 0 {
		return pp.errorf("offered load must be positive, got %g", pp.Offered)
	}
	if pp.Tenants < 1 {
		return pp.errorf("need at least one tenant, got %d", pp.Tenants)
	}
	switch pp.Mix {
	case "zipf", "uniform", "split", "hotspot", "hotsplit":
	default:
		return pp.errorf("unknown key mix %q (want zipf, uniform, split, hotspot or hotsplit)", pp.Mix)
	}
	return nil
}

// PlatformConfig is the serving platform's configuration. llckb > 0
// shrinks the LLC so the working set actually lives beyond it: with the
// calibrated 12 MB LLC, a small keyspace becomes LLC-resident after
// warmup and a DRAM tier would measure nothing.
func (pp *PointParams) PlatformConfig() platform.Config {
	cfg := platform.DefaultConfig()
	cfg.TrackData = true
	cfg.XP.Wear.Enabled = false
	if pp.LLCKB > 0 {
		cfg.LLC.Lines = int(pp.LLCKB << 10 / 64)
	}
	return cfg
}

// BackendSpec is the preload geometry: every tenant's keyspace, with
// emulated scans wrapping inside one tenant's range.
func (pp *PointParams) BackendSpec() BackendSpec {
	return BackendSpec{
		Media: pp.Media, Mode: pp.Mode,
		Keys: int64(pp.Tenants) * pp.Keys, KeySize: pp.KeySize, ValSize: pp.ValSize,
		PMBytes: pp.PMBytes, DRAMBytes: pp.DRAMBytes,
		ScanSpan: pp.Keys, NativeScan: pp.ScanMode == "native",
	}
}

// tenantMix builds the per-tenant key mixes: zipf or uniform for every
// tenant, split alternates them (even tenants Zipf-skewed), hotspot gives
// every tenant its own shifting hot window, and hotsplit makes tenant 0
// the hot-range tenant beside uniform ones, so shed accounting shows who
// a hot shard drops.
func (pp *PointParams) tenantMix() []Tenant {
	hotKeys := pp.HotKeys
	if hotKeys == 0 {
		hotKeys = pp.Keys/20 + 1
	}
	tens := make([]Tenant, pp.Tenants)
	for i := range tens {
		tens[i] = Tenant{Name: fmt.Sprintf("t%d", i)}
		switch {
		case pp.Mix == "zipf", pp.Mix == "split" && i%2 == 0:
			tens[i].Theta = pp.Theta
		case pp.Mix == "hotspot", pp.Mix == "hotsplit" && i == 0:
			tens[i].HotFrac = pp.HotFrac
			tens[i].HotKeys = hotKeys
			tens[i].HotPeriod = pp.HotPeriod
		}
	}
	return tens
}

// PointHooks name the runner-owned counters the shared trace probes and
// gated metrics read. A nil hook is off.
type PointHooks struct {
	// Log reads the write-behind log counters, merged across shards.
	Log func() pmem.Counters
	// Tier reads the DRAM hot tier's counters, merged across shards.
	Tier func() hottier.Counters
	// Near reads a Memory-Mode near cache's counters, for the trace
	// gauges and GET hit attribution.
	Near func() (hits, misses, writebacks int64)
}

// PointRun is one served point: the Serve result and the base metric map,
// which the runner extends before calling Trial.
type PointRun struct {
	Res     *Result
	Metrics map[string]float64
	// Dev is the devstat watcher, present only with the devstat param.
	Dev *devstat.Watcher
	rec *telemetry.Recorder
}

// Serve runs the point. The caller supplies the platform and the dispatch
// targets in cfg (Platform, Shards, Route, Faults, Detect); Serve fills in
// the rest from the params and the spec, attaches the trace recorder (when
// spec.Trace) and the devstat watcher (with the devstat param), and folds
// the result into the base metric map.
func (pp *PointParams) Serve(spec harness.Spec, cfg Config, h PointHooks) (*PointRun, error) {
	arr, err := NewArrival(pp.Arrival, pp.Offered*1e3, sim.Micros(pp.CycleUS), pp.OnFrac, spec.Seed^0x5A17)
	if err != nil {
		return nil, err
	}
	run := &PointRun{}
	p := cfg.Platform
	// The recorder keys off the spec's Trace flag, never a param, so seeds
	// and results are untouched.
	if spec.Trace {
		rec := telemetry.NewRecorder(TraceInterval(spec.Duration), 0)
		if h.Log != nil {
			rec.AddProbe(func(add func(string, float64)) {
				c := h.Log()
				c.Gauges(add)
			})
		}
		devstat.AddProbes(rec, p)
		switch {
		case h.Tier != nil:
			rec.AddProbe(func(add func(string, float64)) { h.Tier().Gauges(add) })
			cfg.CacheStats = func() (int64, int64) {
				c := h.Tier()
				return c.Hits, c.Misses
			}
		case h.Near != nil:
			rec.AddProbe(func(add func(string, float64)) {
				hits, misses, writebacks := h.Near()
				add("cache_hits", float64(hits))
				add("cache_misses", float64(misses))
				add("memmode_writebacks", float64(writebacks))
			})
			cfg.CacheStats = func() (int64, int64) {
				hits, misses, _ := h.Near()
				return hits, misses
			}
		}
		run.rec, cfg.Recorder = rec, rec
	}
	// The devstat watcher captures device-counter snapshots at the measured
	// window's boundaries on its own read-only proc — it observes the run
	// without the serving layer knowing, so results are unchanged.
	if pp.Devstat {
		run.Dev = devstat.Watch(p, spec.Socket, spec.Warmup, spec.Duration)
	}
	cfg.Socket = spec.Socket
	cfg.Arrival, cfg.Tenants = arr, pp.tenantMix()
	cfg.Keys, cfg.KeySize, cfg.ValSize = pp.Keys, pp.KeySize, pp.ValSize
	cfg.GetFrac, cfg.PutFrac, cfg.ScanFrac, cfg.DelFrac = pp.GetFrac, pp.PutFrac, pp.ScanFrac, pp.DelFrac
	cfg.ScanLen = pp.ScanLen
	cfg.Duration, cfg.Warmup = spec.Duration, spec.Warmup
	cfg.Poll, cfg.Seed = sim.Nanos(pp.PollNS), spec.Seed
	cfg.BatchSize, cfg.BatchLinger = pp.Batch, sim.Nanos(pp.LingerNS)
	res, err := Serve(cfg)
	if err != nil {
		return nil, err
	}
	run.Res = res

	workers := 0
	for _, sh := range cfg.Shards {
		workers += sh.Workers
	}
	qs := res.Latency.Quantiles([]float64{0.5, 0.95, 0.99, 0.999})
	m := map[string]float64{
		"offered_kops":  res.OfferedRate / 1e3,
		"achieved_kops": res.AchievedRate / 1e3,
		"drop_frac":     DropFrac(res.Dropped, res.Offered),
		"p50_ns":        qs[0],
		"p95_ns":        qs[1],
		"p99_ns":        qs[2],
		"p999_ns":       qs[3],
		"util":          res.Utilization(workers),
		"qmax":          float64(res.MaxQueueLen),
	}
	for i := range res.Tenants {
		t := &res.Tenants[i]
		m[fmt.Sprintf("t%d_p99_ns", i)] = t.Latency.Percentile(0.99)
		m[fmt.Sprintf("t%d_drop_frac", i)] = DropFrac(t.Dropped, t.Offered)
		// Per-tenant shed accounting appears once the run actually sheds,
		// keeping light-load output free of it while skewed overload runs
		// show who gets dropped. The gate depends only on the result,
		// never on the schedule.
		harness.GateMetric(m, res.Dropped > 0, fmt.Sprintf("t%d_shed_ops", i), float64(t.Dropped))
	}
	// Every other counter block is gated on its subsystem being on, so a
	// run without it emits none of its keys: fence amortization on the
	// group-commit path, cache_* with a DRAM tier, dev_* with devstat.
	harness.GateMetrics(m, pp.Batch > 1 && h.Log != nil, func(m map[string]float64) {
		c := h.Log()
		c.Metrics(m)
	})
	harness.GateMetrics(m, h.Tier != nil, func(m map[string]float64) {
		h.Tier().Metrics(m)
	})
	harness.GateMetrics(m, run.Dev != nil, func(m map[string]float64) {
		run.Dev.Window().Metrics(m)
	})
	run.Metrics = m
	return run, nil
}

// Trial closes the point: a traced run folds its trace metrics into the
// map and carries the recording.
func (run *PointRun) Trial() harness.Trial {
	tr := harness.Trial{
		Ops:     run.Res.Completed,
		Sim:     run.Res.Window,
		Latency: run.Res.Latency,
		Metrics: run.Metrics,
	}
	if run.rec != nil {
		rn := run.rec.Finish("")
		rn.Metrics(run.Metrics)
		tr.Trace = &telemetry.Trace{Runs: []*telemetry.Run{rn}}
	}
	return tr
}

// TraceInterval derives the timeline sampling interval from a measured
// window: ~40 samples per run, floored at 1 µs so shortened smoke windows
// sample sparsely instead of per-op. Deriving it from the spec's Duration
// (never from a param) keeps tracing entirely outside seed derivation —
// a traced trial reproduces the untraced trial's results exactly.
func TraceInterval(duration sim.Time) sim.Time {
	return max(duration/40, sim.Microsecond)
}

// DropFrac is the shed fraction of offered requests (0 when none were
// offered).
func DropFrac(dropped, offered int64) float64 {
	if offered == 0 {
		return 0
	}
	return float64(dropped) / float64(offered)
}
