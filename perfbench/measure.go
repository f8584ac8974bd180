package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"optanestudy/internal/harness"
	"optanestudy/internal/telemetry"
)

// width is the harness pool width and GOMAXPROCS of every run: the
// workloads run from one process through one RunSpecs pool, never
// serially, because serial runs pay cross-core proc hand-off wake-ups
// that make host time noisy.
const width = 2

// pass is one execution of a spec list through the harness pool.
type pass struct {
	wall    time.Duration
	alloc   uint64 // Go heap bytes allocated
	peakRSS int64  // peak resident bytes during the pass
	res     []harness.SpecResult
	profile []byte // gzipped CPU profile, when one was taken
}

// runPass runs specs once. Garbage from earlier passes is freed and the
// peak-RSS mark reset first, so each pass's memory figures are its own.
func runPass(specs []harness.Spec, profile bool) (pass, error) {
	debug.FreeOSMemory()
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return pass{}, fmt.Errorf("cpu profile: %w", err)
		}
	}
	start := time.Now()
	res := harness.RunSpecs(specs, width)
	wall := time.Since(start)
	if profile {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	return pass{
		wall: wall, alloc: m1.TotalAlloc - m0.TotalAlloc,
		peakRSS: peakRSS(), res: res, profile: prof.Bytes(),
	}, nil
}

// resetPeakRSS clears the kernel's resident-set high-water mark for this
// process. Where the kernel refuses, peakRSS reports the process-lifetime
// peak instead.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns the resident-set high-water mark in bytes.
func peakRSS() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
				if err == nil {
					return kb << 10
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return ru.Maxrss << 10
	}
	return 0
}

// withTrace returns a copy of specs with Spec.Trace set.
func withTrace(specs []harness.Spec) []harness.Spec {
	out := append([]harness.Spec(nil), specs...)
	for i := range out {
		out[i].Trace = true
	}
	return out
}

// repeat runs passes made by next until the measuring budget is used: a
// new pass starts only while it is expected to end within the budget, and
// at least min passes run.
func repeat(budget time.Duration, min int, next func(i int) (pass, error)) ([]pass, error) {
	start := time.Now()
	var out []pass
	for i := 0; ; i++ {
		if i >= min {
			elapsed := time.Since(start)
			if elapsed+elapsed/time.Duration(i) > budget {
				return out, nil
			}
		}
		p, err := next(i)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
}

// simFingerprint renders every simulated output of a result — counts,
// simulated times, latency quantiles, metrics and text artifacts — so two
// runs of one spec can be compared exactly. Metrics only a traced run
// emits (the phase_* breakdown) are left out, so a traced result must
// fingerprint exactly like the untraced one.
func simFingerprint(r *harness.Result) string {
	var b strings.Builder
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i, tr := range r.Trials {
		fmt.Fprintf(&b, "trial %d ops=%d bytes=%d sim=%d gbs=%s opsps=%s\n",
			i, tr.Ops, tr.Bytes, int64(tr.Sim), f(tr.GBs), f(tr.OpsPerSec))
		if tr.Latency != nil {
			qs := tr.Latency.Quantiles([]float64{0.5, 0.99, 0.999, 1})
			fmt.Fprintf(&b, "lat n=%d q=%s,%s,%s,%s\n", tr.Latency.Count(), f(qs[0]), f(qs[1]), f(qs[2]), f(qs[3]))
		}
		keys := make([]string, 0, len(tr.Metrics))
		for k := range tr.Metrics {
			if !strings.HasPrefix(k, "phase_") {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s=%s\n", k, f(tr.Metrics[k]))
		}
		b.WriteString(tr.Text)
	}
	return b.String()
}

// checks accumulates the correctness checks of a run.
type checks struct {
	problems []string
	// failedSpecs marks specs whose operations all count as failed.
	failedSpecs map[int]bool
	// errored is set when a job returned an error: the whole run fails.
	errored bool
}

// fail records a problem and marks spec (an index into the run's spec
// list; negative for a problem outside it) as failed.
func (c *checks) fail(spec int, format string, args ...any) {
	if c.failedSpecs == nil {
		c.failedSpecs = map[int]bool{}
	}
	if spec >= 0 {
		c.failedSpecs[spec] = true
	}
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// compare checks that every pass produced exactly the simulated outputs
// of the first: passes of one seed must agree, traced or not.
func (c *checks) compare(specs []harness.Spec, passes []pass, label func(i int) string) {
	for s := range specs {
		var want string
		for pi, p := range passes {
			sr := p.res[s]
			if sr.Err != nil {
				c.errored = true
				c.fail(s, "%s: %v", specs[s].Scenario, sr.Err)
				continue
			}
			fp := simFingerprint(sr.Result)
			if pi == 0 {
				want = fp
			} else if fp != want {
				c.fail(s, "%s %s: simulated outputs differ from %s with the same seed",
					specLabel(specs[s]), label(pi), label(0))
			}
		}
	}
}

// specLabel names a spec by scenario and offered rate, when it has one.
func specLabel(s harness.Spec) string {
	if r, ok := s.Params["offered"]; ok {
		lbl := s.Scenario + "@" + r
		if _, crash := s.Params["fault"]; crash {
			lbl += "+crash"
		}
		return lbl
	}
	return s.Scenario
}

// finite rejects NaN and infinite values, which JSON cannot carry.
func finite(m map[string]float64) error {
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", k, v)
		}
	}
	return nil
}

// gauge returns a named gauge of a timeline sample.
func gauge(s telemetry.Sample, name string) float64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}
