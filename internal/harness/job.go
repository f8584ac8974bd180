package harness

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	"optanestudy/internal/sim"
)

// job is one independent, deterministic unit of work: a single warmup run
// or measured trial of one fully resolved spec. A job carries everything a
// worker needs, so the set of jobs from a sweep can execute in any order —
// serially or across a pool — and produce the same per-trial results.
type job struct {
	sc   Scenario
	spec Spec // fully resolved; Seed is this run's derived seed
	// specIdx is the index of the originating spec in the batch; results
	// and errors are reported in this order no matter when jobs finish.
	specIdx int
	// run is the warmup or trial index within the spec.
	run int
	// warmup jobs execute for wall-clock priming only; their trials are
	// discarded and they carry a seed stream disjoint from measured runs.
	warmup bool
}

// deriveSeed computes the RNG seed for one run of a resolved spec by
// hashing the spec's identity — scenario name, resolved params, the
// measurement knobs, and the base seed — together with the run's kind and
// index (FNV-1a). A trial's seed therefore depends only on what is being
// measured and which trial it is, never on where in a sweep the trial
// happens to execute, so any schedule (serial, shuffled, parallel)
// reproduces the same per-trial randomness.
func deriveSeed(spec Spec, warmup bool, run int) uint64 {
	h := fnv.New64a()
	io.WriteString(h, spec.Scenario)
	keys := make([]string, 0, len(spec.Params))
	for k := range spec.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		io.WriteString(h, "\x00p\x00"+k+"\x00"+spec.Params[k])
	}
	for _, v := range []int64{
		int64(spec.Threads), int64(spec.Socket), int64(spec.Duration),
		int64(spec.Ops), int64(spec.Warmup), int64(spec.Seed),
	} {
		io.WriteString(h, "\x00"+strconv.FormatInt(v, 10))
	}
	if warmup {
		io.WriteString(h, "\x00warmup\x00")
	} else {
		io.WriteString(h, "\x00trial\x00")
	}
	io.WriteString(h, strconv.Itoa(run))
	return h.Sum64()
}

// buildJobs expands one resolved spec (specs[specIdx] after withDefaults)
// into its warmup and trial jobs.
func buildJobs(sc Scenario, spec Spec, specIdx int) []job {
	jobs := make([]job, 0, spec.WarmupRuns+spec.Trials)
	for i := 0; i < spec.WarmupRuns; i++ {
		jspec := spec
		jspec.Seed = deriveSeed(spec, true, i)
		jobs = append(jobs, job{sc: sc, spec: jspec, specIdx: specIdx, run: i, warmup: true})
	}
	for i := 0; i < spec.Trials; i++ {
		jspec := spec
		jspec.Seed = deriveSeed(spec, false, i)
		jobs = append(jobs, job{sc: sc, spec: jspec, specIdx: specIdx, run: i, warmup: false})
	}
	return jobs
}

// execute runs the job's single trial, stamps wall time, and derives the
// standard rates. It touches no state outside the job, which is what makes
// the scheduler free to run jobs concurrently. A panic in the scenario —
// in its Run or in one of its simulated threads — becomes this job's error,
// so it cannot take down the process or a sibling spec's result.
func (j job) execute() (_ Trial, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError("scenario "+j.sc.Name, r)
		}
	}()
	start := time.Now()
	tr, err := j.sc.Run(j.spec)
	if err != nil {
		return Trial{}, err
	}
	tr.Wall = time.Since(start)
	if tr.GBs == 0 && tr.Bytes > 0 && tr.Sim > 0 {
		tr.GBs = float64(tr.Bytes) / tr.Sim.Seconds() / 1e9
	}
	if tr.OpsPerSec == 0 && tr.Ops > 0 && tr.Sim > 0 {
		tr.OpsPerSec = float64(tr.Ops) / tr.Sim.Seconds()
	}
	return tr, nil
}

// panicError turns a recovered panic of what (a scenario, a snapshot
// build) into an error carrying what, the panic value and the stack where
// it was raised. A *sim.ProcPanic brings the name, simulated time and
// stack of the simulated thread that panicked.
func panicError(what string, r any) error {
	if pp, ok := r.(*sim.ProcPanic); ok {
		return fmt.Errorf("%s panicked in proc %q at %v: %v\n%s", what, pp.Proc, pp.Now, pp.Value, pp.Stack)
	}
	return fmt.Errorf("%s panicked: %v\n%s", what, r, debug.Stack())
}
