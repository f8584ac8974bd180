package service

import (
	"fmt"
	"strconv"
	"strings"

	"optanestudy/internal/harness"
	"optanestudy/internal/hottier"
	"optanestudy/internal/sim"
	"optanestudy/internal/telemetry"
)

// Harness scenarios. Single load points register as "service/kv/pmemkv"
// and "service/kv/lsmkv"; load sweeps ("service/kv/sweep-*") step offered
// load across a grid of point trials and emit the throughput-latency
// curve, with "sweep-contention" repeating the grid per worker count
// against a single-DIMM pool — the paper's threads-per-DIMM best practice
// as a serving experiment.
func init() {
	harness.Register(harness.Scenario{
		Name: "service/kv/pmemkv",
		Doc:  "open-loop GET/PUT/SCAN serving against the pmemkv cmap",
		Defaults: harness.Defaults{
			Threads: 8, Duration: 400 * sim.Microsecond, Seed: 23,
			Params: map[string]string{"backend": "pmemkv"},
		},
		Run: runPoint,
	})
	harness.Register(harness.Scenario{
		Name: "service/kv/lsmkv",
		Doc:  "open-loop GET/PUT/SCAN serving against the lsmkv store",
		Defaults: harness.Defaults{
			Threads: 4, Duration: 4 * sim.Millisecond, Seed: 24,
			Params: map[string]string{"backend": "lsmkv", "offered": "150"},
		},
		Run: runPoint,
	})
	// The scan preset exercises the redesigned Backend interface: lsmkv
	// serves SCANs natively (one sorted memtable + SST merge walk instead
	// of ScanLen point lookups) and a small DELETE fraction writes
	// tombstones through the blind-delete path.
	harness.Register(harness.Scenario{
		Name: "service/kv/lsmkv-scan",
		Doc:  "open-loop serving with native sorted-range SCANs and tombstone DELETEs on lsmkv",
		Defaults: harness.Defaults{
			Threads: 4, Duration: 2 * sim.Millisecond, Seed: 26,
			Params: map[string]string{
				"backend": "lsmkv", "offered": "150", "scanmode": "native",
				"get": "0.5", "put": "0.2", "scan": "0.25", "del": "0.05",
			},
		},
		Run: runPoint,
	})
	harness.Register(harness.Scenario{
		Name: "service/kv/sweep-pmemkv",
		Doc:  "pmemkv throughput-vs-latency curve across an offered-load grid",
		Defaults: harness.Defaults{
			Threads: 8, Duration: 300 * sim.Microsecond, Seed: 33,
			Params: map[string]string{
				"backend": "pmemkv",
				"minkops": "2000", "maxkops": "44000", "points": "7",
			},
		},
		Run: runSweepScenario,
	})
	harness.Register(harness.Scenario{
		Name: "service/kv/sweep-lsmkv",
		Doc:  "lsmkv throughput-vs-latency curve across an offered-load grid",
		Defaults: harness.Defaults{
			Threads: 4, Duration: 2 * sim.Millisecond, Seed: 34,
			Params: map[string]string{
				"backend": "lsmkv",
				"minkops": "100", "maxkops": "700", "points": "5",
			},
		},
		Run: runSweepScenario,
	})
	// The contention preset journals sub-XPLine (128 B) records per worker
	// onto one DIMM: each worker is a sequential write stream whose
	// partially-filled XPLines stay open between requests, so once the
	// worker count exceeds the controller's combining capacity the streams
	// close each other's lines early, EWR collapses, and saturation
	// arrives at a lower offered load with 16 workers than with 4 — the
	// paper's threads-per-DIMM limit as a serving experiment.
	harness.Register(harness.Scenario{
		Name: "service/kv/sweep-contention",
		Doc:  "per-worker-count saturation curves on a single DIMM (threads-per-DIMM limit)",
		Defaults: harness.Defaults{
			Threads: 4, Duration: 300 * sim.Microsecond, Seed: 35,
			Params: map[string]string{
				"backend": "pmemkv", "media": "optane-ni",
				"putlog": "1", "keysize": "8", "valsize": "112",
				"get": "0.3", "put": "0.7", "scan": "0",
				"minkops": "3000", "maxkops": "21000", "points": "7",
				"threadgrid": "4,16",
			},
		},
		Run: runSweepScenario,
	})
	// The batch family turns group commit on: workers drain up to `batch`
	// admitted requests per wakeup and journal the group's PUTs through
	// ONE fence (lingering up to `linger` ns to fill short batches), the
	// write-behind shape of van Renen et al.'s buffered log primitives.
	// The point scenario reports the fence-amortization counters
	// (pmem_fence_per_op well below 1); the sweep repeats the
	// single-DIMM contention grid at depths 1/8/32, where the depth-1 leg
	// is byte-identical to an unbatched sweep and the deeper legs shift
	// the saturation knee right.
	harness.Register(harness.Scenario{
		Name: "service/batch/point",
		Doc:  "group-commit dispatch at one load level: batched drain, one fence per batch",
		Defaults: harness.Defaults{
			Threads: 4, Duration: 300 * sim.Microsecond, Seed: 36,
			Params: map[string]string{
				"backend": "pmemkv", "media": "optane-ni",
				"putlog": "1", "keysize": "8", "valsize": "112",
				"get": "0.3", "put": "0.7", "scan": "0",
				"offered": "15000", "batch": "8", "linger": "1000",
			},
		},
		Run: runPoint,
	})
	// The cache family puts the DRAM hot tier in front of the PM backend:
	// a read-heavy Zipf mix over a keyspace much larger than the
	// (deliberately shrunk) LLC, so GETs that the tier absorbs run at DRAM
	// latency while misses pay the 3D XPoint read path. The sweep repeats
	// the load grid per tier size (cachegrid, @c<N> suffixes, size-0 leg
	// byte-identical to an uncached sweep) and the memmode point runs the
	// competing configuration: the same DRAM budget spent as the memory
	// controller's near cache instead of a software record tier.
	harness.Register(harness.Scenario{
		Name: "service/cache/point",
		Doc:  "read-heavy Zipf serving with a DRAM hot tier fronting pmemkv",
		Defaults: harness.Defaults{
			Threads: 8, Duration: 400 * sim.Microsecond, Seed: 41,
			Params: map[string]string{
				"backend": "pmemkv", "mix": "zipf",
				"keys": "2000", "valsize": "128", "llckb": "16",
				"get": "0.95", "put": "0.05", "scan": "0",
				"offered": "8000", "cache": "262144",
			},
		},
		Run: runPoint,
	})
	harness.Register(harness.Scenario{
		Name: "service/cache/memmode",
		Doc:  "the same DRAM budget as Memory-Mode: hardware near cache instead of a software hot tier",
		Defaults: harness.Defaults{
			Threads: 8, Duration: 400 * sim.Microsecond, Seed: 41,
			Params: map[string]string{
				"tier": "memmode", "mix": "zipf",
				"keys": "2000", "valsize": "128", "llckb": "16",
				"get": "0.95", "put": "0.05", "scan": "0",
				"offered": "8000", "cache": "262144",
			},
		},
		Run: runPoint,
	})
	harness.Register(harness.Scenario{
		Name: "service/cache/sweep",
		Doc:  "saturation curves per DRAM tier size on a read-heavy Zipf mix (knee vs cache size)",
		Defaults: harness.Defaults{
			Threads: 8, Duration: 300 * sim.Microsecond, Seed: 42,
			Params: map[string]string{
				"backend": "pmemkv", "mix": "zipf",
				"keys": "2000", "valsize": "128", "llckb": "16",
				"get": "0.95", "put": "0.05", "scan": "0",
				"minkops": "4000", "maxkops": "28000", "points": "7",
				"cachegrid": "0,65536,524288",
			},
		},
		Run: runSweepScenario,
	})
	harness.Register(harness.Scenario{
		Name: "service/cache/sweep-hotspot",
		Doc:  "tier sizes under a shifting hotspot: the moving working set churns the tier",
		Defaults: harness.Defaults{
			Threads: 8, Duration: 300 * sim.Microsecond, Seed: 43,
			Params: map[string]string{
				"backend": "pmemkv", "mix": "hotspot",
				"hotfrac": "0.9", "hotkeys": "200", "hotperiod": "400",
				"keys": "2000", "valsize": "128", "llckb": "16",
				"get": "0.95", "put": "0.05", "scan": "0",
				"minkops": "4000", "maxkops": "28000", "points": "7",
				"cachegrid": "0,524288",
			},
		},
		Run: runSweepScenario,
	})
	harness.Register(harness.Scenario{
		Name: "service/batch/sweep",
		Doc:  "group-commit saturation curves at batch depths 1/8/32 on a single DIMM",
		Defaults: harness.Defaults{
			Threads: 4, Duration: 300 * sim.Microsecond, Seed: 35,
			Params: map[string]string{
				"backend": "pmemkv", "media": "optane-ni",
				"putlog": "1", "keysize": "8", "valsize": "112",
				"get": "0.3", "put": "0.7", "scan": "0",
				"minkops": "3000", "maxkops": "21000", "points": "7",
				"batchgrid": "1,8,32", "batchlinger": "1000",
			},
		},
		Run: runSweepScenario,
	})
}

// runPoint measures one open-loop load level on a single node: one shard
// serving the backend — behind a DRAM hot tier or as a Memory-Mode store
// when a cache size is given — with the workers on the spec's socket.
func runPoint(spec harness.Spec) (harness.Trial, error) {
	r := harness.NewParamReader(spec.Params)
	pp := ReadPointParams(r, "service", 4000)
	if err := r.Err(); err != nil {
		return harness.Trial{}, err
	}
	if err := pp.Check(); err != nil {
		return harness.Trial{}, err
	}
	p := pp.NewPlatform()
	defer p.Close()

	bspec := pp.BackendSpec()
	backend := pp.Backend
	if pp.Tier == "memmode" {
		backend = "memmode"
		bspec.NearBytes = pp.CacheBytes
	}
	be, err := NewBackend(p, backend, bspec)
	if err != nil {
		return harness.Trial{}, err
	}
	var hooks PointHooks
	if pp.Tier == "hot" {
		tier, err := hottier.New(p, be, hottier.Config{
			Name: "svc", Socket: spec.Socket,
			CapacityBytes: pp.CacheBytes, RecordBytes: pp.ValSize,
			Admit: pp.Admit, Policy: pp.Evict,
			TenantSpan: pp.Keys, QuotaBytes: pp.QuotaBytes,
			Seed: spec.Seed ^ 0x407C,
		})
		if err != nil {
			return harness.Trial{}, err
		}
		be, hooks.Tier = tier, tier.Counters
	}
	mb, isMemMode := be.(*memModeBackend)
	if isMemMode {
		hooks.Near = mb.Stats().Stats
	}
	var plog *AppendLog
	if pp.PutLog {
		region := int64(2 << 20)
		if rec := int64(8 + pp.KeySize + pp.ValSize); region < 4*rec {
			region = 4 * rec // oversized records: keep several per wrap
		}
		plog, err = NewAppendLog(p, BackendSpec{Media: pp.Media}, spec.Threads, region)
		if err != nil {
			return harness.Trial{}, err
		}
		hooks.Log = plog.Counters
	}
	run, err := pp.Serve(spec, Config{
		Platform: p,
		Shards: []Shard{{
			Backend: be, Workers: spec.Threads, QueueCap: pp.QueueCap,
			Socket: spec.Socket, PutLog: plog,
		}},
	}, hooks)
	if err != nil {
		return harness.Trial{}, err
	}
	harness.GateMetrics(run.Metrics, isMemMode, func(m map[string]float64) {
		hits, misses, writebacks := mb.Stats().Stats()
		m["cache_hits"] = float64(hits)
		m["cache_misses"] = float64(misses)
		m["cache_evictions"] = float64(mb.Stats().Evictions())
		if hits+misses > 0 {
			m["cache_hit_rate"] = float64(hits) / float64(hits+misses)
		} else {
			m["cache_hit_rate"] = 0
		}
		m["memmode_writebacks"] = float64(writebacks)
	})
	return run.Trial(), nil
}

// runSweepScenario fans a load grid (and, with threadgrid / batchgrid
// params, a worker-count or group-commit-depth grid) out over nested
// point trials. Grid params are consumed here; everything else passes
// through to the point scenario verbatim, whose reader catches typos.
//
// A batchgrid leg with depth 1 injects NO batch params at all, so its
// point specs — and therefore their derived seeds and results — are
// byte-identical to the same sweep without a batch axis: the unbatched
// curve is the baseline, not a near-copy of it. batchlinger (ns) rides
// the same rule: it reaches only the depth>1 legs.
func runSweepScenario(spec harness.Spec) (harness.Trial, error) {
	rest := make(map[string]string, len(spec.Params))
	for k, v := range spec.Params {
		rest[k] = v
	}
	minKops, maxKops, pointsF, err := GridParams(rest, 1000, 16000, 6)
	if err != nil {
		return harness.Trial{}, err
	}
	backend := rest["backend"]
	if backend == "" {
		backend = "pmemkv"
	}
	threadGrid := []int{spec.Threads}
	if tg, ok := rest["threadgrid"]; ok {
		delete(rest, "threadgrid")
		threadGrid = threadGrid[:0]
		for _, s := range strings.Split(tg, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				return harness.Trial{}, fmt.Errorf("param threadgrid=%q: want comma-separated positive ints", tg)
			}
			threadGrid = append(threadGrid, n)
		}
	}
	batchGrid, linger, err := BatchGridParams(rest)
	if err != nil {
		return harness.Trial{}, err
	}
	cacheGrid, cacheExtras, err := CacheGridParams(rest)
	if err != nil {
		return harness.Trial{}, err
	}

	tr := harness.Trial{Metrics: make(map[string]float64)}
	var trace *telemetry.Trace
	var text strings.Builder
	for _, threads := range threadGrid {
		for _, batch := range batchGrid {
			for _, cache := range cacheGrid {
				params := CacheLegParams(BatchLegParams(rest, batch, linger), cache, cacheExtras)
				curve, err := RunSweep(SweepConfig{
					Backend: backend, Params: params,
					Threads: threads, Duration: spec.Duration, Warmup: spec.Warmup,
					Seed:    spec.Seed,
					MinKops: minKops, MaxKops: maxKops, Points: int(pointsF),
					Parallel: spec.Parallel,
					Trace:    spec.Trace,
				})
				if err != nil {
					return harness.Trial{}, err
				}
				suffix := ""
				if len(threadGrid) > 1 {
					suffix += fmt.Sprintf("@t%d", threads)
				}
				if len(batchGrid) > 1 {
					suffix += fmt.Sprintf("@b%d", batch)
				}
				if len(cacheGrid) > 1 {
					suffix += fmt.Sprintf("@c%d", cache)
				}
				trace = MergeCurveTrace(trace, curve, suffix)
				EmitCurve(&tr, curve, suffix)
				// Cached legs add their curve-level cache readout (hit rate at
				// the deepest load, where the tier is warmest, plus the knee's
				// p50); the cache-less legs emit nothing extra, keeping them
				// byte-identical to a sweep without the cache axis.
				if cache > 0 {
					tr.Metrics["cache_hit_rate"+suffix] = curve[len(curve)-1].Metrics["cache_hit_rate"]
					tr.Metrics["p50_knee_ns"+suffix] = curve[curve.KneeIndex()].P50
				}
				title := fmt.Sprintf("service sweep: %s, %d workers", backend, threads)
				if len(batchGrid) > 1 {
					title += fmt.Sprintf(", batch %d", batch)
				}
				if len(cacheGrid) > 1 {
					title += fmt.Sprintf(", cache %d B", cache)
				}
				text.WriteString(curve.TSV(title))
				text.WriteByte('\n')
			}
		}
	}
	tr.Text = strings.TrimRight(text.String(), "\n")
	tr.Trace = trace
	return tr, nil
}

// MergeCurveTrace folds a traced curve's per-point recordings into one
// trial-level trace, relabelling each run with its grid coordinate (and
// the sweep leg's metric suffix) so a renderer can tell the points apart.
// Returns trace unchanged on untraced sweeps. Shared with the cluster
// sweep scenario.
func MergeCurveTrace(trace *telemetry.Trace, curve Curve, suffix string) *telemetry.Trace {
	for _, pt := range curve {
		if pt.Trace == nil {
			continue
		}
		if trace == nil {
			trace = &telemetry.Trace{}
		}
		for _, rn := range pt.Trace.Runs {
			rn.Label = fmt.Sprintf("offered=%g%s", pt.OfferedKops, suffix)
			trace.Runs = append(trace.Runs, rn)
		}
	}
	return trace
}

// BatchGridParams consumes the group-commit sweep params: "batchgrid" (a
// comma-separated list of batch depths; default just depth 1) and
// "batchlinger" (the linger bound in ns for the depth>1 legs). Shared by
// the service and cluster sweep scenarios.
func BatchGridParams(params map[string]string) (grid []int, linger string, err error) {
	grid = []int{1}
	if bg, ok := params["batchgrid"]; ok {
		delete(params, "batchgrid")
		grid = grid[:0]
		for _, s := range strings.Split(bg, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 1 {
				return nil, "", fmt.Errorf("param batchgrid=%q: want comma-separated positive ints", bg)
			}
			grid = append(grid, n)
		}
	}
	if lg, ok := params["batchlinger"]; ok {
		delete(params, "batchlinger")
		linger = lg
	}
	return grid, linger, nil
}

// BatchLegParams renders one batch-grid leg's point params: depth 1
// passes base through untouched (no batch keys — the spec must stay
// byte-identical to an unbatched sweep's), deeper legs copy base and add
// batch/linger.
func BatchLegParams(base map[string]string, batch int, linger string) map[string]string {
	if batch <= 1 {
		return base
	}
	params := make(map[string]string, len(base)+2)
	for k, v := range base {
		params[k] = v
	}
	params["batch"] = strconv.Itoa(batch)
	if linger != "" {
		params["linger"] = linger
	}
	return params
}

// CacheGridParams consumes the hot-tier sweep params: "cachegrid" (a
// comma-separated list of DRAM tier sizes in bytes; 0 is the uncached
// leg, and the default grid is just that) plus the companions that reach
// only the cached legs — "cachequota", "cacheadmit", "cacheevict" and
// "cachetier" map onto the point scenario's quota/admit/evict/tier
// params. Shared by the service and cluster sweep scenarios.
func CacheGridParams(params map[string]string) (grid []int64, extras map[string]string, err error) {
	grid = []int64{0}
	if cg, ok := params["cachegrid"]; ok {
		delete(params, "cachegrid")
		grid = grid[:0]
		for _, s := range strings.Split(cg, ",") {
			n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil || n < 0 {
				return nil, nil, fmt.Errorf("param cachegrid=%q: want comma-separated byte sizes >= 0", cg)
			}
			grid = append(grid, n)
		}
	}
	for param, key := range map[string]string{
		"cachequota": "quota",
		"cacheadmit": "admit",
		"cacheevict": "evict",
		"cachetier":  "tier",
	} {
		if v, ok := params[param]; ok {
			delete(params, param)
			if extras == nil {
				extras = make(map[string]string)
			}
			extras[key] = v
		}
	}
	return grid, extras, nil
}

// CacheLegParams renders one cache-grid leg's point params: size 0 passes
// base through untouched (no cache keys — the uncached leg's specs, and
// so their derived seeds and results, stay byte-identical to a sweep with
// no cache axis), larger sizes copy base and add cache plus the
// companions.
func CacheLegParams(base map[string]string, cache int64, extras map[string]string) map[string]string {
	if cache <= 0 {
		return base
	}
	params := make(map[string]string, len(base)+1+len(extras))
	for k, v := range base {
		params[k] = v
	}
	params["cache"] = strconv.FormatInt(cache, 10)
	for k, v := range extras {
		params[k] = v
	}
	return params
}
