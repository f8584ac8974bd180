package harness_test

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"optanestudy/internal/harness"
	"optanestudy/internal/platform"
	"optanestudy/internal/sim"
)

// snapshotBuilds counts the test/snapshot builds, to check how often a
// batch builds a key.
var snapshotBuilds atomic.Int64

type snapCell struct {
	v    int
	refs []*int
}

// buildSnapshot builds the test snapshot, failing the way mode says.
func buildSnapshot(mode string) (*snapCell, error) {
	snapshotBuilds.Add(1)
	switch mode {
	case "error":
		return nil, errors.New("injected build error")
	case "panic":
		panic("injected build panic")
	case "procpanic":
		p := platform.MustNew(platform.DefaultConfig())
		defer p.Close()
		p.Engine().Go("preload", 0, func(*sim.Proc) { panic("injected preload panic") })
		p.Run()
	}
	x := 7
	return &snapCell{v: 41, refs: []*int{&x, &x}}, nil
}

func init() {
	harness.Register(harness.Scenario{
		Name:     "test/snapshot",
		Doc:      "forks a snapshot keyed by the key param; mode makes its build fail",
		Defaults: harness.Defaults{Threads: 1, Seed: 1},
		Run: func(spec harness.Spec) (harness.Trial, error) {
			r := harness.NewParamReader(spec.Params)
			key, mode := r.Str("key", "k"), r.Str("mode", "ok")
			if err := r.Err(); err != nil {
				return harness.Trial{}, err
			}
			c, err := harness.Fork(spec, key, func() (*snapCell, error) { return buildSnapshot(mode) })
			if err != nil {
				return harness.Trial{}, err
			}
			if c == nil || c.refs[0] != c.refs[1] || *c.refs[0] != 7 {
				return harness.Trial{}, errors.New("fork lost the snapshot's aliasing")
			}
			// Writing the fork must not reach the snapshot or a sibling.
			c.v++
			*c.refs[0]++
			return harness.Trial{Ops: int64(c.v + *c.refs[1])}, nil
		},
	})
	harness.Register(harness.Scenario{
		Name:     "test/snapshot-nest",
		Doc:      "forks key k, then runs a nested batch of test/snapshot specs on k",
		Defaults: harness.Defaults{Threads: 1, Seed: 1},
		Run: func(spec harness.Spec) (harness.Trial, error) {
			if _, err := harness.Fork(spec, "k", func() (*snapCell, error) { return buildSnapshot("ok") }); err != nil {
				return harness.Trial{}, err
			}
			var inner []harness.Spec
			for i := 0; i < 3; i++ {
				inner = append(inner, harness.Spec{Scenario: "test/snapshot", Trials: 2})
			}
			var ops int64
			for _, sr := range harness.RunSpecs(inner, spec.Parallel) {
				if sr.Err != nil {
					return harness.Trial{}, sr.Err
				}
				ops += sr.Result.Trials[0].Ops
			}
			return harness.Trial{Ops: ops}, nil
		},
	})
}

// TestSnapshotBuiltOncePerBatch checks that a batch builds each key once
// however many jobs fork it, that every fork starts from the snapshot's
// value, and that the cache dies with the batch: a second batch builds
// again, and so does a nested batch.
func TestSnapshotBuiltOncePerBatch(t *testing.T) {
	var specs []harness.Spec
	for i := 0; i < 6; i++ {
		specs = append(specs, harness.Spec{Scenario: "test/snapshot", Trials: 2})
	}
	specs = append(specs, harness.Spec{Scenario: "test/snapshot", Params: map[string]string{"key": "other"}})
	for batch := 1; batch <= 2; batch++ {
		snapshotBuilds.Store(0)
		for i, sr := range harness.RunSpecs(specs, 4) {
			if sr.Err != nil {
				t.Fatalf("batch %d spec %d: %v", batch, i, sr.Err)
			}
			for _, tr := range sr.Result.Trials {
				if tr.Ops != 50 {
					t.Errorf("batch %d spec %d: fork started from %d, want 50 (a fork saw another fork's write)", batch, i, tr.Ops)
				}
			}
		}
		if n := snapshotBuilds.Load(); n != 2 {
			t.Errorf("batch %d: %d builds for 2 keys", batch, n)
		}
	}
	snapshotBuilds.Store(0)
	sr := harness.RunSpecs([]harness.Spec{{Scenario: "test/snapshot-nest"}}, 2)[0]
	if sr.Err != nil {
		t.Fatal(sr.Err)
	}
	if n := snapshotBuilds.Load(); n != 2 {
		t.Errorf("outer and nested batch: %d builds of one key, want 2 (one per batch)", n)
	}
}

// TestSnapshotFailedBuildFailsEveryJob checks that a build that errors or
// panics — in the build itself or in a simulated thread it runs — fails
// every job sharing its key with the build's error, at every width.
func TestSnapshotFailedBuildFailsEveryJob(t *testing.T) {
	for _, c := range []struct{ mode, want string }{
		{"error", "injected build error"},
		{"panic", "injected build panic"},
		{"procpanic", "injected preload panic"},
	} {
		for _, width := range []int{1, 4} {
			var specs []harness.Spec
			for i := 0; i < 5; i++ {
				specs = append(specs, harness.Spec{
					Scenario: "test/snapshot", Trials: 2,
					Params: map[string]string{"key": c.mode, "mode": c.mode},
				})
			}
			snapshotBuilds.Store(0)
			for i, sr := range harness.RunSpecs(specs, width) {
				if sr.Err == nil || !strings.Contains(sr.Err.Error(), c.want) {
					t.Errorf("%s, width %d, spec %d: err = %v, want it to carry %q", c.mode, width, i, sr.Err, c.want)
				}
			}
			if n := snapshotBuilds.Load(); n != 1 {
				t.Errorf("%s, width %d: %d builds, want 1", c.mode, width, n)
			}
		}
	}
}

// TestForkWithoutBatch checks that a spec run outside RunSpecs builds
// afresh on every call and still gets a private copy.
func TestForkWithoutBatch(t *testing.T) {
	snapshotBuilds.Store(0)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := harness.Fork(harness.Spec{}, "k", func() (*snapCell, error) { return buildSnapshot("ok") })
			if err != nil || c.v != 41 {
				t.Errorf("fork = %+v, %v", c, err)
			}
		}()
	}
	wg.Wait()
	if n := snapshotBuilds.Load(); n != 3 {
		t.Errorf("%d builds for 3 uncached forks", n)
	}
}
