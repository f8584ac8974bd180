package service

import (
	"errors"
	"math"
	"strings"
	"testing"

	"optanestudy/internal/harness"
	"optanestudy/internal/platform"
	"optanestudy/internal/sim"
)

var errOversizedAccepted = errors.New("oversized record accepted")

func testPlatform(t *testing.T) *platform.Platform {
	t.Helper()
	cfg := platform.DefaultConfig()
	cfg.TrackData = true
	cfg.XP.Wear.Enabled = false
	p := platform.MustNew(cfg)
	t.Cleanup(p.Close)
	return p
}

func TestDeterministicArrivalRate(t *testing.T) {
	a := NewDeterministic(1e6) // 1 Mops → 1 µs gaps
	for i := 0; i < 10; i++ {
		if got := a.Next(); got != sim.Microsecond {
			t.Fatalf("gap = %v, want 1us", got)
		}
	}
}

func TestPoissonMeanRate(t *testing.T) {
	a := NewPoisson(1e6, 7)
	var total sim.Time
	const n = 20000
	for i := 0; i < n; i++ {
		total += a.Next()
	}
	mean := float64(total) / n
	want := float64(sim.Microsecond)
	if math.Abs(mean-want)/want > 0.05 {
		t.Fatalf("mean gap = %.0f ps, want %.0f ± 5%%", mean, want)
	}
}

func TestBurstyOnOffStructure(t *testing.T) {
	cycle := 20 * sim.Microsecond
	a := NewBursty(1e6, cycle, 0.25, 9)
	on := 5 * sim.Microsecond
	var at sim.Time
	var total sim.Time
	const n = 5000
	for i := 0; i < n; i++ {
		gap := a.Next()
		if gap < 0 {
			t.Fatal("negative gap")
		}
		at += gap
		total += gap
		if at%cycle >= on {
			t.Fatalf("arrival %d at %v falls in the off-window (pos %v)", i, at, at%cycle)
		}
	}
	// Long-run mean rate must stay near the nominal 1 Mops.
	rate := float64(n) / total.Seconds()
	if rate < 0.8e6 || rate > 1.2e6 {
		t.Fatalf("long-run rate = %.0f ops/s, want ~1e6", rate)
	}
}

func TestArrivalDeterministic(t *testing.T) {
	for _, kind := range []string{"det", "poisson", "burst"} {
		mk := func() Arrival {
			a, err := NewArrival(kind, 2e6, 20*sim.Microsecond, 0.25, 77)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		a, b := mk(), mk()
		for i := 0; i < 2000; i++ {
			if x, y := a.Next(), b.Next(); x != y {
				t.Fatalf("%s gap %d: %v vs %v — same seed diverged", kind, i, x, y)
			}
		}
	}
	if _, err := NewArrival("nope", 1e6, 0, 0, 1); err == nil {
		t.Fatal("unknown arrival kind must error")
	}
}

func serveOnce(t *testing.T, seed uint64, offered float64, qcap int) *Result {
	t.Helper()
	p := testPlatform(t)
	be, err := NewPMemKV(p, BackendSpec{Media: "optane", Keys: 400, KeySize: 16, ValSize: 128, ScanSpan: 200})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Serve(Config{
		Platform: p, Shards: []Shard{{Backend: be, Workers: 4, QueueCap: qcap}},
		Arrival: NewPoisson(offered, seed^0xF00D),
		Tenants: []Tenant{{Name: "zipf", Theta: 0.99}, {Name: "uni"}},
		Keys:    200, KeySize: 16, ValSize: 128,
		GetFrac: 0.75, PutFrac: 0.2, ScanFrac: 0.05,
		Duration: 200 * sim.Microsecond, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestServeBasics(t *testing.T) {
	res := serveOnce(t, 3, 2e6, 0) // 2 Mops: far below capacity
	if res.Offered == 0 {
		t.Fatal("no requests generated")
	}
	if res.Dropped != 0 {
		t.Fatalf("dropped %d requests at light load", res.Dropped)
	}
	if res.Completed != res.Offered {
		t.Fatalf("completed %d of %d offered with no drops", res.Completed, res.Offered)
	}
	if got := res.Latency.Count(); got != res.Completed {
		t.Fatalf("latency samples %d != completed %d", got, res.Completed)
	}
	var offered, completed int64
	for _, ts := range res.Tenants {
		offered += ts.Offered
		completed += ts.Completed
		if ts.Offered == 0 {
			t.Fatalf("tenant %s got no traffic", ts.Name)
		}
	}
	if offered != res.Offered || completed != res.Completed {
		t.Fatal("tenant totals disagree with aggregate")
	}
	if res.Latency.Percentile(0.5) <= 0 {
		t.Fatal("zero median latency")
	}
	if u := res.Utilization(4); u <= 0 || u > 1.05 {
		t.Fatalf("utilization = %v", u)
	}
	if res.AchievedRate < 1.6e6 || res.AchievedRate > 2.4e6 {
		t.Fatalf("achieved rate %.0f far from offered 2e6", res.AchievedRate)
	}
}

func TestServeShedsAtOverload(t *testing.T) {
	res := serveOnce(t, 5, 60e6, 16) // far past capacity, tiny queue
	if res.Dropped == 0 {
		t.Fatal("overload with a tiny queue must shed")
	}
	if res.Completed >= res.Offered {
		t.Fatal("achieved should fall short of offered at overload")
	}
	if res.MaxQueueLen > 16 {
		t.Fatalf("queue grew to %d past its cap 16", res.MaxQueueLen)
	}
	if res.QueueResidency == 0 {
		t.Fatal("no queueing delay recorded at overload")
	}
}

// Same seed ⇒ identical run, trial after trial (the statelessness the
// harness byte-identical contract needs from this package).
func TestServeDeterministic(t *testing.T) {
	a, b := serveOnce(t, 11, 8e6, 0), serveOnce(t, 11, 8e6, 0)
	if a.Offered != b.Offered || a.Completed != b.Completed || a.Dropped != b.Dropped {
		t.Fatalf("counts diverged: %+v vs %+v", a, b)
	}
	qa := a.Latency.Quantiles([]float64{0.5, 0.99, 0.999})
	qb := b.Latency.Quantiles([]float64{0.5, 0.99, 0.999})
	for i := range qa {
		if qa[i] != qb[i] {
			t.Fatalf("latency quantiles diverged: %v vs %v", qa, qb)
		}
	}
	if a.WorkerBusy != b.WorkerBusy || a.QueueResidency != b.QueueResidency {
		t.Fatal("instrumentation diverged")
	}
}

func TestAppendLog(t *testing.T) {
	p := testPlatform(t)
	l, err := NewAppendLog(p, BackendSpec{Media: "dram"}, 2, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var appendErr error
	p.Go("log", 0, func(ctx *platform.MemCtx) {
		// 60 records of 128 B per worker in a 4 KB region: wraps several
		// times without panicking or touching the other worker's region.
		for i := 0; i < 60; i++ {
			for w := 0; w < 2; w++ {
				if err := l.Append(ctx, w, KeyFor(int64(i), 8), ValFor(int64(i), 112)); err != nil {
					appendErr = err
					return
				}
			}
		}
		// A record larger than the per-worker region must be refused, not
		// spilled into the neighboring worker's log.
		if err := l.Append(ctx, 0, KeyFor(0, 8), make([]byte, 8192)); err == nil {
			appendErr = errOversizedAccepted
		}
	})
	p.Run()
	if appendErr != nil {
		t.Fatal(appendErr)
	}
	if _, err := NewAppendLog(p, BackendSpec{Media: "bogus"}, 1, 4096); err == nil {
		t.Fatal("bad media must error")
	}
	if _, err := NewAppendLog(p, BackendSpec{Media: "dram"}, 1, 100); err == nil {
		t.Fatal("tiny region must error")
	}
}

// TestBackendScanDelete covers the redesigned Backend interface: pmemkv's
// explicit emulated scan wraps inside the keyspace shard, lsmkv's native
// scan walks sorted order, and Delete removes keys on both engines.
func TestBackendScanDelete(t *testing.T) {
	for _, name := range []string{"pmemkv", "lsmkv"} {
		name := name
		t.Run(name, func(t *testing.T) {
			p := testPlatform(t)
			be, err := NewBackend(p, name, BackendSpec{
				Media: "optane", Keys: 100, KeySize: 16, ValSize: 64,
				ScanSpan: 50, NativeScan: name == "lsmkv",
			})
			if err != nil {
				t.Fatal(err)
			}
			var scanErr error
			p.Go("t", 0, func(ctx *platform.MemCtx) {
				// A scan near the shard end must touch n records (the
				// emulated path wraps at id 50; the native path keeps
				// walking sorted order).
				if n := be.Scan(ctx, KeyFor(45, 16), 10); n != 10 {
					t.Errorf("scan touched %d records, want 10", n)
				}
				if err := be.Delete(ctx, KeyFor(7, 16)); err != nil {
					scanErr = err
					return
				}
				if v, ok := be.Get(ctx, KeyFor(7, 16)); ok {
					t.Errorf("deleted key still returns %q", v)
				}
				if _, ok := be.Get(ctx, KeyFor(8, 16)); !ok {
					t.Error("neighbor key lost after delete")
				}
			})
			p.Run()
			if scanErr != nil {
				t.Fatal(scanErr)
			}
		})
	}
}

// TestNativeScanCheaper: the point of the native sorted-range scan is that
// one merge walk beats n point lookups in simulated time.
func TestNativeScanCheaper(t *testing.T) {
	scanTime := func(native bool) sim.Time {
		p := testPlatform(t)
		be, err := NewBackend(p, "lsmkv", BackendSpec{
			Media: "optane", Keys: 400, KeySize: 16, ValSize: 128,
			NativeScan: native,
		})
		if err != nil {
			t.Fatal(err)
		}
		var elapsed sim.Time
		p.Go("t", 0, func(ctx *platform.MemCtx) {
			start := ctx.Proc().Now()
			for s := int64(0); s < 360; s += 40 {
				be.Scan(ctx, KeyFor(s, 16), 16)
			}
			elapsed = ctx.Proc().Now() - start
		})
		p.Run()
		return elapsed
	}
	emulated := scanTime(false)
	native := scanTime(true)
	if native >= emulated {
		t.Fatalf("native scan (%v) must beat %d emulated point lookups (%v)", native, 16, emulated)
	}
}

func TestBackendSpecValidation(t *testing.T) {
	p := testPlatform(t)
	// Payload larger than the PM namespace must be refused up front.
	if _, err := NewBackend(p, "pmemkv", BackendSpec{
		Media: "optane", Keys: 1000, KeySize: 64, ValSize: 4096, PMBytes: 1 << 20,
	}); err == nil {
		t.Fatal("oversized payload accepted")
	}
	// A DRAM budget below the memtable must be refused for lsmkv.
	if _, err := NewBackend(p, "lsmkv", BackendSpec{
		Media: "optane", Keys: 10, KeySize: 16, ValSize: 64, DRAMBytes: 1 << 20,
	}); err == nil {
		t.Fatal("undersized DRAM budget accepted")
	}
	// Custom (sufficient) budgets work end to end.
	p2 := testPlatform(t)
	be, err := NewBackend(p2, "pmemkv", BackendSpec{
		Media: "optane", Keys: 50, KeySize: 16, ValSize: 64,
		PMBytes: 32 << 20, DRAMBytes: 16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	p2.Go("t", 0, func(ctx *platform.MemCtx) {
		if _, ok := be.Get(ctx, KeyFor(25, 16)); !ok {
			t.Error("preloaded key missing on custom-sized namespace")
		}
	})
	p2.Run()
}

// TestServeValidation: every dispatch target is a Shard, so a config
// with none (or with several and no route) is refused before anything
// runs.
func TestServeValidation(t *testing.T) {
	p := testPlatform(t)
	be, err := NewPMemKV(p, BackendSpec{Media: "optane", Keys: 20, KeySize: 16, ValSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Platform: p, Arrival: NewDeterministic(1e6), Tenants: []Tenant{{Name: "t"}},
		Keys: 10, KeySize: 16, ValSize: 64, GetFrac: 1, Duration: sim.Microsecond,
	}
	one := Shard{Backend: be, Workers: 1}
	for _, tc := range []struct {
		name   string
		shards []Shard
		route  func(int64) int
		want   string
	}{
		{"no shards", nil, nil, "at least one shard"},
		{"empty shards", []Shard{}, nil, "at least one shard"},
		{"two shards, no route", []Shard{one, one}, nil, "route function"},
		{"no backend", []Shard{{Workers: 1}}, nil, "no backend"},
		{"no workers", []Shard{{Backend: be}}, nil, "at least one worker"},
	} {
		cfg := base
		cfg.Shards, cfg.Route = tc.shards, tc.route
		if _, err := Serve(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
	cfg := base
	cfg.Shards = []Shard{one}
	if _, err := Serve(cfg); err != nil {
		t.Fatalf("one shard, no route: %v", err)
	}
}

func TestKneeIndex(t *testing.T) {
	c := Curve{
		{OfferedKops: 10, GenKops: 10, AchievedKops: 10},
		{OfferedKops: 20, GenKops: 20, AchievedKops: 19.8},
		{OfferedKops: 40, GenKops: 40, AchievedKops: 30},
		{OfferedKops: 80, GenKops: 80, AchievedKops: 31},
	}
	if got := c.KneeIndex(); got != 1 {
		t.Fatalf("knee = %d, want 1", got)
	}
	if got := c.SaturationKops(); got != 31 {
		t.Fatalf("saturation = %v, want 31", got)
	}
	// Poisson undershoot at light load is not saturation.
	c[0].GenKops, c[0].AchievedKops = 9, 9
	if got := c.KneeIndex(); got != 1 {
		t.Fatalf("knee with undershoot = %d, want 1", got)
	}
	all := Curve{{GenKops: 10, AchievedKops: 10}, {GenKops: 20, AchievedKops: 20}}
	if got := all.KneeIndex(); got != 1 {
		t.Fatalf("unsaturated curve knee = %d, want last", got)
	}
	sat := Curve{{GenKops: 10, AchievedKops: 5}}
	if got := sat.KneeIndex(); got != 0 {
		t.Fatalf("fully saturated knee = %d, want 0", got)
	}
}

// TestValSizeTooSmallRejected: a value carries an 8-byte id stamp, so
// valsize below 8 must be a parse error, not a panic inside the run.
func TestValSizeTooSmallRejected(t *testing.T) {
	for _, sc := range []string{"service/kv/pmemkv", "service/kv/lsmkv"} {
		for _, v := range []string{"-1", "0", "3", "7"} {
			_, err := harness.Run(harness.Spec{
				Scenario: sc, Duration: sim.Microsecond,
				Params: map[string]string{"valsize": v},
			})
			if err == nil || !strings.Contains(err.Error(), "valsize must be >= 8") {
				t.Errorf("%s valsize=%s: err = %v, want a valsize error", sc, v, err)
			}
		}
	}
}
