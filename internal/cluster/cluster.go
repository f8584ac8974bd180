package cluster

import (
	"fmt"

	"optanestudy/internal/hottier"
	"optanestudy/internal/platform"
	"optanestudy/internal/pmem"
	"optanestudy/internal/replica"
	"optanestudy/internal/service"
)

// Config assembles a cluster on one platform: a placement policy resolved
// over the machine's geometry, one preloaded backend replica per shard on
// its placement, and the router that partitions traffic.
type Config struct {
	// Policy / Shards / Workers / DIMMs / CapPerDIMM / ClientSocket feed
	// the placement (see PlaceConfig).
	Policy       string
	Shards       int
	Workers      int
	DIMMs        int
	CapPerDIMM   int
	ClientSocket int
	// Span is the router's block width in key ids (default 1).
	Span int64
	// QueueCap bounds each shard's admission queue (default 32×workers).
	QueueCap int
	// Backend is "pmemkv" or "lsmkv"; Spec carries the preload geometry
	// (Keys is the full global keyspace — every shard holds a replica, the
	// router partitions traffic, not data). Spec's placement fields
	// (Socket, Channels, NamePrefix, Media "optane-ni") are owned by the
	// cluster and must be left zero; Media chooses "optane" or "dram".
	Backend string
	Spec    service.BackendSpec
	// PutLog switches PUTs to write-behind logging on per-worker appenders
	// carved from each shard's own DIMM set; LogRegion is the per-worker
	// log size (default 2 MiB).
	PutLog    bool
	LogRegion int64
	// Replicate pairs every shard's primary with a standby replica — a
	// second preloaded backend plus ship log on the NEXT socket (same
	// channel set, so the pair occupies a distinct (socket, DIMM-set)
	// placement) — and wires a replica.Pair into the shard so logged PUTs
	// ship synchronously and fault events can fail the shard over.
	// Requires PutLog (replication ships the log), at least two sockets,
	// and no cache tier (a promoted backend would bypass the tier's
	// coherence).
	Replicate bool
	// CacheBytes > 0 fronts every shard's backend with a DRAM hot tier of
	// that size, placed on the shard's *worker* socket (data DIMMs may sit
	// elsewhere under numa-blind placement; hits must not cross UPI).
	// CacheQuota / CacheAdmit / CacheEvict configure per-tenant quotas,
	// the admission touch count and the eviction policy; CacheTenantSpan
	// is the per-tenant key-id width quotas account against. The tiers'
	// eviction RNGs are seeded after construction (SeedTiers), so a
	// Config holds no seed and a built cluster can be forked.
	CacheBytes      int64
	CacheQuota      int64
	CacheAdmit      int
	CacheEvict      string
	CacheTenantSpan int64
}

// Cluster is the assembled serving fabric: hand Shards and Route to
// service.Serve.
type Cluster struct {
	Placement *Placement
	Router    *Router
	// Shards are the dispatch targets, one per placement slot.
	Shards []service.Shard
	// Tiers are the per-shard DRAM hot tiers (nil entries when CacheBytes
	// is 0); callers aggregate their counters after a run.
	Tiers []*hottier.Tier
	// Pairs are the per-shard replica pairs (nil when Replicate is off);
	// callers read their Stats after a run.
	Pairs []*replica.Pair
}

// ReplStats merges every shard pair's replication counters.
func (c *Cluster) ReplStats() replica.Stats {
	var sum replica.Stats
	for _, pr := range c.Pairs {
		if pr == nil {
			continue
		}
		st := pr.Stats()
		sum.ShipBatches += st.ShipBatches
		sum.ShipRecs += st.ShipRecs
		sum.ShipBytes += st.ShipBytes
		sum.Failovers += st.Failovers
		sum.ReplayBatches += st.ReplayBatches
		sum.ReplayRecs += st.ReplayRecs
		sum.LostRecs += st.LostRecs
		sum.Leaves += st.Leaves
		sum.Joins += st.Joins
		sum.CatchupRecs += st.CatchupRecs
	}
	return sum
}

// CacheCounters merges every shard tier's accounting.
func (c *Cluster) CacheCounters() hottier.Counters {
	var sum hottier.Counters
	for _, t := range c.Tiers {
		if t != nil {
			sum.Merge(t.Counters())
		}
	}
	return sum
}

// LogCounters merges every shard's write-behind log counters, reading
// each shard's current log (a promoted shard's is its standby's).
func (c *Cluster) LogCounters() pmem.Counters {
	var sum pmem.Counters
	for i := range c.Shards {
		if pl := c.Shards[i].PutLog; pl != nil {
			cc := pl.Counters()
			sum.Merge(&cc)
		}
	}
	return sum
}

// SeedTiers seeds every shard tier's eviction RNG: shard i's from
// seed + i·φ (derive seed from the job seed).
func (c *Cluster) SeedTiers(seed uint64) {
	for i, t := range c.Tiers {
		if t != nil {
			t.Reseed(seed + uint64(i)*0x9E3779B97F4A7C15)
		}
	}
}

// Route maps a global key id to its shard (the service dispatch hook).
func (c *Cluster) Route(key int64) int { return c.Router.Shard(key) }

// TotalWorkers sums the shard pools (after any per-DIMM cap).
func (c *Cluster) TotalWorkers() int {
	n := 0
	for _, sh := range c.Shards {
		n += sh.Workers
	}
	return n
}

// New places and builds the cluster on the platform: for each shard, a
// preloaded backend replica (and optionally a per-worker append log) on
// the shard's (socket, DIMM-set), wired into a service.Shard with the
// policy's worker pool.
func New(p *platform.Platform, cfg Config) (*Cluster, error) {
	if cfg.Spec.Socket != 0 || cfg.Spec.Channels != nil || cfg.Spec.NamePrefix != "" {
		return nil, fmt.Errorf("cluster: BackendSpec placement fields are cluster-owned")
	}
	if cfg.Spec.Media == "optane-ni" {
		return nil, fmt.Errorf("cluster: use media optane with a DIMMs=1 placement instead of optane-ni")
	}
	pl, err := Place(PlaceConfig{
		Policy: cfg.Policy, Geom: p.Config().Geometry,
		ClientSocket: cfg.ClientSocket,
		Shards:       cfg.Shards, Workers: cfg.Workers,
		DIMMs: cfg.DIMMs, CapPerDIMM: cfg.CapPerDIMM,
	})
	if err != nil {
		return nil, err
	}
	span := cfg.Span
	if span == 0 {
		span = 1
	}
	router, err := NewRouter(cfg.Shards, span)
	if err != nil {
		return nil, err
	}
	logRegion := cfg.LogRegion
	if logRegion == 0 {
		logRegion = 2 << 20
	}
	if cfg.CacheBytes > 0 && cfg.Spec.ValSize <= 0 {
		return nil, fmt.Errorf("cluster: a cache tier needs the record size (Spec.ValSize), got %d", cfg.Spec.ValSize)
	}
	sockets := p.Config().Geometry.Sockets
	if cfg.Replicate {
		if !cfg.PutLog {
			return nil, fmt.Errorf("cluster: replication ships the write-behind log; set PutLog")
		}
		if cfg.CacheBytes > 0 {
			return nil, fmt.Errorf("cluster: replication does not compose with a cache tier (a promoted backend would bypass it)")
		}
		if sockets < 2 {
			return nil, fmt.Errorf("cluster: replication needs a standby socket (%d socket geometry)", sockets)
		}
	}
	c := &Cluster{
		Placement: pl, Router: router,
		Shards: make([]service.Shard, cfg.Shards),
		Tiers:  make([]*hottier.Tier, cfg.Shards),
	}
	if cfg.Replicate {
		c.Pairs = make([]*replica.Pair, cfg.Shards)
	}
	for i, sp := range pl.Shards {
		bs := cfg.Spec
		bs.Socket = sp.DataSocket
		bs.Channels = sp.Channels
		bs.NamePrefix = fmt.Sprintf("shard%d", i)
		be, err := service.NewBackend(p, cfg.Backend, bs)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		if cfg.CacheBytes > 0 {
			tier, err := hottier.New(p, be, hottier.Config{
				Name:          fmt.Sprintf("shard%dcache", i),
				Socket:        sp.WorkerSocket,
				CapacityBytes: cfg.CacheBytes, RecordBytes: cfg.Spec.ValSize,
				Admit: cfg.CacheAdmit, Policy: cfg.CacheEvict,
				TenantSpan: cfg.CacheTenantSpan, QuotaBytes: cfg.CacheQuota,
			})
			if err != nil {
				return nil, fmt.Errorf("cluster: shard %d cache: %w", i, err)
			}
			c.Tiers[i] = tier
			be = tier
		}
		var plog *service.AppendLog
		if cfg.PutLog {
			ls := bs
			ls.NamePrefix = fmt.Sprintf("shard%dlog", i)
			plog, err = service.NewAppendLog(p, ls, sp.Workers, logRegion)
			if err != nil {
				return nil, fmt.Errorf("cluster: shard %d log: %w", i, err)
			}
		}
		c.Shards[i] = service.Shard{
			Backend: be, Workers: sp.Workers, QueueCap: cfg.QueueCap,
			Socket: sp.WorkerSocket, PutLog: plog,
		}
		if cfg.Replicate {
			// The standby lives one socket over, on the same channel set:
			// a distinct (socket, DIMM-set) placement, so a socket loss or
			// DIMM failure never takes both replicas, and shipping pays
			// the real UPI crossing.
			rsock := (sp.DataSocket + 1) % sockets
			rs := cfg.Spec
			rs.Socket = rsock
			rs.Channels = sp.Channels
			rs.NamePrefix = fmt.Sprintf("shard%dr", i)
			rbe, err := service.NewBackend(p, cfg.Backend, rs)
			if err != nil {
				return nil, fmt.Errorf("cluster: shard %d standby: %w", i, err)
			}
			ss := rs
			ss.NamePrefix = fmt.Sprintf("shard%dship", i)
			ship, err := service.NewAppendLog(p, ss, sp.Workers, logRegion)
			if err != nil {
				return nil, fmt.Errorf("cluster: shard %d ship log: %w", i, err)
			}
			pair, err := replica.NewPair(i, sp.Workers,
				replica.Node{Backend: be, Log: plog, Socket: sp.DataSocket},
				replica.Node{Backend: rbe, Log: ship, Socket: rsock})
			if err != nil {
				return nil, fmt.Errorf("cluster: shard %d pair: %w", i, err)
			}
			c.Pairs[i] = pair
			c.Shards[i].Repl = pair
		}
	}
	return c, nil
}
