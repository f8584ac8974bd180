package harness

import (
	"sync"

	"optanestudy/internal/deepcopy"
)

// Snapshots is one batch's build-once cache: RunSpecs makes one per batch,
// stamps it on every job's spec, and drops it when it returns, so nothing
// outlives the batch and a nested batch has a cache of its own.
//
// A snapshot is a quiescent value several jobs would each build the same
// way — a serving platform with its preloaded backends — stored under a
// key that spells out everything the build depends on. Jobs never run on
// the snapshot itself: Fork hands each one a deep copy. Because a build is
// a pure function of its key and the snapshot is never written, which job
// builds it cannot change any result, at any pool width.
type Snapshots struct {
	mu      sync.Mutex
	entries map[string]*snapshot
}

type snapshot struct {
	done chan struct{} // closed once val and err are set
	val  any
	err  error
}

// get returns the value under key, building it on the key's first call;
// later callers wait for that build. A failed build — an error or a
// panic — fails every caller of the key with the same error. A nil
// *Snapshots caches nothing.
func (s *Snapshots) get(key string, build func() (any, error)) (any, error) {
	if s == nil {
		return runBuild(build)
	}
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		if s.entries == nil {
			s.entries = make(map[string]*snapshot)
		}
		e = &snapshot{done: make(chan struct{})}
		s.entries[key] = e
	}
	s.mu.Unlock()
	if ok {
		<-e.done
		return e.val, e.err
	}
	defer close(e.done)
	e.val, e.err = runBuild(build)
	return e.val, e.err
}

// runBuild runs build, turning a panic into its error.
func runBuild(build func() (any, error)) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, panicError("snapshot build", r)
		}
	}()
	return build()
}

// Fork returns a private deep copy of the snapshot stored under key in the
// spec's batch cache, building the snapshot with build on first use (see
// Snapshots). The key must determine the build completely; anything a job
// varies that the build must not see, such as a seed, is applied to the
// fork afterwards. Outside a batch every call builds afresh and still
// returns a copy, so a job runs the same way with or without a cache.
func Fork[T any](spec Spec, key string, build func() (T, error)) (T, error) {
	var zero T
	v, err := spec.Snapshots.get(key, func() (any, error) { return build() })
	if err != nil {
		return zero, err
	}
	return deepcopy.Copy(v.(T))
}
