package service

import (
	"fmt"

	"optanestudy/internal/harness"
	"optanestudy/internal/hottier"
	"optanestudy/internal/platform"
	"optanestudy/internal/sim"
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
// when a cache size is given — with the workers on the spec's socket. It
// runs on a fork of its batch's snapshot of the built node.
func runPoint(spec harness.Spec) (harness.Trial, error) {
	return nodePoint(spec, func(b nodeBuild) (node, error) { return harness.Fork(spec, b.key(), b.build) })
}

// nodePoint runs the point on the quiescent node open returns for the
// point's build. Tests pass b.build itself as the fresh-build reference a
// fork must match.
func nodePoint(spec harness.Spec, open func(nodeBuild) (node, error)) (harness.Trial, error) {
	r := harness.NewParamReader(spec.Params)
	pp := ReadPointParams(r, "service", 4000)
	if err := r.Err(); err != nil {
		return harness.Trial{}, err
	}
	if err := pp.Check(); err != nil {
		return harness.Trial{}, err
	}
	b := nodeBuild{Platform: pp.PlatformConfig(), Backend: pp.Backend, Spec: pp.BackendSpec()}
	if pp.Tier == "memmode" {
		b.Backend = "memmode"
		b.Spec.NearBytes = pp.CacheBytes
	}
	if pp.Tier == "hot" {
		b.Tier = hottier.Config{
			Name: "svc", Socket: spec.Socket,
			CapacityBytes: pp.CacheBytes, RecordBytes: pp.ValSize,
			Admit: pp.Admit, Policy: pp.Evict,
			TenantSpan: pp.Keys, QuotaBytes: pp.QuotaBytes,
		}
	}
	if pp.PutLog {
		b.LogWorkers = spec.Threads
		b.LogRegion = int64(2 << 20)
		if rec := int64(8 + pp.KeySize + pp.ValSize); b.LogRegion < 4*rec {
			b.LogRegion = 4 * rec // oversized records: keep several per wrap
		}
	}
	n, err := open(b)
	if err != nil {
		return harness.Trial{}, err
	}
	p, be, plog := n.p, n.be, n.plog
	defer p.Close()
	var hooks PointHooks
	if n.tier != nil {
		n.tier.Reseed(spec.Seed ^ 0x407C)
		hooks.Tier = n.tier.Counters
	}
	mb, isMemMode := be.(*memModeBackend)
	if isMemMode {
		hooks.Near = mb.Stats().Stats
	}
	if plog != nil {
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

// nodeBuild is everything a single-node point's construction depends on:
// the platform, the preloaded backend, a hot tier when Tier.CapacityBytes
// is set (its Seed stays zero: the point reseeds its fork) and a
// per-worker put log when LogWorkers is set. A point runs on a fork of
// the built node, so points of one batch that share a build share one
// preload.
type nodeBuild struct {
	Platform   platform.Config
	Backend    string
	Spec       BackendSpec
	Tier       hottier.Config
	LogWorkers int
	LogRegion  int64
}

// key spells out every field, so a construction field joins the key
// without being listed here.
func (b nodeBuild) key() string { return fmt.Sprintf("%#v", b) }

// node is a quiescent, preloaded single-node server: the backend (behind
// its tier, when one is built) and the put log on their platform.
type node struct {
	p    *platform.Platform
	be   Backend
	tier *hottier.Tier
	plog *AppendLog
}

// build constructs the node in the order namespace bases depend on:
// backend, tier, log.
func (b nodeBuild) build() (node, error) {
	n := node{p: platform.MustNew(b.Platform)}
	ok := false
	defer func() {
		if !ok {
			n.p.Close() // reap a preload left parked by an error or panic
		}
	}()
	var err error
	if n.be, err = NewBackend(n.p, b.Backend, b.Spec); err != nil {
		return node{}, err
	}
	if b.Tier.CapacityBytes > 0 {
		if n.tier, err = hottier.New(n.p, n.be, b.Tier); err != nil {
			return node{}, err
		}
		n.be = n.tier
	}
	if b.LogWorkers > 0 {
		if n.plog, err = NewAppendLog(n.p, BackendSpec{Media: b.Spec.Media}, b.LogWorkers, b.LogRegion); err != nil {
			return node{}, err
		}
	}
	ok = true
	return n, nil
}

// runSweepScenario runs a single-node sweep preset through the shared
// grid loop, driving the point scenario of the preset's backend.
func runSweepScenario(spec harness.Spec) (harness.Trial, error) {
	backend := spec.Params["backend"]
	if backend == "" {
		backend = "pmemkv"
	}
	return RunGridSweep(spec, "service/kv/"+backend)
}
