package harness

import (
	"fmt"
	"sort"
	"strconv"

	"optanestudy/internal/sim"
)

// Spec is one fully serializable run request: which scenario, its workload
// parameters, and the shared measurement knobs. Zero fields inherit the
// scenario's defaults when resolved by the driver.
type Spec struct {
	// Scenario is the registered scenario name (e.g. "lattester/seq-read").
	Scenario string
	// Params carries scenario-specific workload parameters as strings so
	// specs round-trip through CLIs and JSON unchanged.
	Params map[string]string
	// Threads is the worker thread count.
	Threads int
	// Socket places the worker threads (0 = local to the namespace for
	// every built-in scenario).
	Socket int
	// Duration is the measured simulated-time budget for rate-style
	// scenarios.
	Duration sim.Time
	// Ops is the operation-count budget for count-style scenarios.
	Ops int
	// Warmup is simulated time excluded from the measured window inside
	// each trial (scenarios that support in-run warmup).
	Warmup sim.Time
	// Trials is how many measured trials the driver runs (default 1).
	Trials int
	// WarmupRuns is how many whole discarded runs accompany the trials for
	// wall-clock priming; they carry a seed stream disjoint from the
	// measured trials and may execute in any order relative to them.
	WarmupRuns int
	// Seed is the base RNG seed. Each run's effective seed is derived by
	// hashing the resolved spec identity (scenario name, params, knobs,
	// Seed) with the run kind and trial index — see deriveSeed — so
	// changing Seed changes every trial's randomness, but no trial uses
	// Seed verbatim.
	Seed uint64
	// Parallel is stamped by the driver on resolved specs: the pool width
	// available to a nested batch this spec's scenario fans out (the
	// requested width divided among the batch's jobs, at least 1).
	// Scenarios that nest (e.g. figures/*) pass it through so total
	// concurrency never exceeds the outer -parallel cap and a serial
	// sweep stays serial end to end. It never participates in seed
	// derivation or reported config, and results do not depend on it.
	Parallel int
	// Trace asks scenarios that support tracing to record per-op phase
	// spans and a timeline into Trial.Trace. Like Parallel it is a
	// non-identity passthrough: deriveSeed never hashes it, so a traced
	// trial's seed — and therefore its measured results — are identical
	// to the untraced trial's. Scenarios that nest (sweeps) propagate it
	// to their point specs and merge the points' traces.
	Trace bool
	// Snapshots is stamped by the driver on each job's spec: the batch's
	// build-once cache (see Fork). Like Parallel it never participates in
	// seed derivation or reported config. A spec handed to a nested batch
	// is stamped with that batch's own cache.
	Snapshots *Snapshots
}

// withDefaults fills zero fields from the scenario's defaults and merges
// default params under explicit ones.
func (s Spec) withDefaults(d Defaults) Spec {
	if s.Threads == 0 {
		s.Threads = d.Threads
	}
	if s.Socket == 0 {
		s.Socket = d.Socket
	}
	if s.Duration == 0 {
		s.Duration = d.Duration
	}
	if s.Ops == 0 {
		s.Ops = d.Ops
	}
	if s.Warmup == 0 {
		s.Warmup = d.Warmup
	}
	if s.Trials == 0 {
		s.Trials = d.Trials
	}
	if s.Trials == 0 {
		s.Trials = 1
	}
	if s.Seed == 0 {
		s.Seed = d.Seed
	}
	if len(d.Params) > 0 {
		merged := make(map[string]string, len(d.Params)+len(s.Params))
		for k, v := range d.Params {
			merged[k] = v
		}
		for k, v := range s.Params {
			merged[k] = v
		}
		s.Params = merged
	}
	return s
}

// ParamReader gives scenarios typed access to Spec.Params with error
// accumulation: getters return the default on absence or parse failure, and
// Err reports the first problem — including params that were set but never
// read (catching CLI typos).
type ParamReader struct {
	params map[string]string
	read   map[string]bool
	err    error
}

// NewParamReader wraps a param map.
func NewParamReader(params map[string]string) *ParamReader {
	return &ParamReader{params: params, read: make(map[string]bool, len(params))}
}

func (r *ParamReader) raw(key string) (string, bool) {
	r.read[key] = true
	v, ok := r.params[key]
	return v, ok
}

func (r *ParamReader) fail(key, v, kind string) {
	if r.err == nil {
		r.err = fmt.Errorf("param %s=%q: not a valid %s", key, v, kind)
	}
}

// Str returns the string param, or def when absent.
func (r *ParamReader) Str(key, def string) string {
	if v, ok := r.raw(key); ok {
		return v
	}
	return def
}

// Int returns the integer param, or def when absent.
func (r *ParamReader) Int(key string, def int) int {
	v, ok := r.raw(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		r.fail(key, v, "integer")
		return def
	}
	return n
}

// Int64 returns the 64-bit integer param, or def when absent.
func (r *ParamReader) Int64(key string, def int64) int64 {
	v, ok := r.raw(key)
	if !ok {
		return def
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		r.fail(key, v, "integer")
		return def
	}
	return n
}

// Bool returns the boolean param ("1/0", "true/false", ...), or def.
func (r *ParamReader) Bool(key string, def bool) bool {
	v, ok := r.raw(key)
	if !ok {
		return def
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		r.fail(key, v, "boolean")
		return def
	}
	return b
}

// Float returns the float param, or def when absent.
func (r *ParamReader) Float(key string, def float64) float64 {
	v, ok := r.raw(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		r.fail(key, v, "float")
		return def
	}
	return f
}

// Err returns the first parse error, or an error naming any params that
// were supplied but never read by the scenario.
func (r *ParamReader) Err() error {
	if r.err != nil {
		return r.err
	}
	var unknown []string
	for k := range r.params {
		if !r.read[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("unknown params: %v", unknown)
	}
	return nil
}
