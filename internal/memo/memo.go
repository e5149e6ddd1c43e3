// Package memo is the keyed singleflight table under every deduplicating
// layer of the simulator: the level-2 run cache, the level-1 trace store
// (the paper's precomputed trace sets Wi×D) and the prefix-sharing
// groups. A Table memoizes completed values by key and collapses
// concurrent requests for an absent key into one build.
package memo

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Outcome reports how a Do call was served: by running the builder, by
// a completed entry, or by joining another caller's in-flight build.
type Outcome int

const (
	// Built: this caller was the leader and ran the builder itself.
	Built Outcome = iota
	// Hit: served from a completed entry, no work at all.
	Hit
	// Joined: deduplicated against another caller's in-flight build.
	Joined
)

// String renders the outcome for logs and wire events.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Joined:
		return "joined"
	default:
		return "built"
	}
}

// Stats summarizes table traffic.
type Stats struct {
	// Builds counts builder invocations — the unique work run.
	Builds int64 `json:"builds"`
	// Hits counts lookups served from a completed entry.
	Hits int64 `json:"hits"`
	// Waits counts lookups that joined an in-flight build — requests a
	// singleflight saved from duplicate work.
	Waits int64 `json:"waits"`
	// Entries is the completed-entry count.
	Entries int `json:"entries"`
}

// Table holds completed entries and in-flight builds under one mutex.
// The zero value is not usable; construct with New.
type Table[K comparable, V any] struct {
	mu      sync.Mutex
	done    map[K]V
	flights map[K]*flight[V]
	max     int // completed-entry bound; <= 0 is unbounded
	order   []K // completed keys, oldest first; kept only when bounded

	builds, hits, waits atomic.Int64

	onInsert func(K, V) // leader-insert hook; nil until OnInsert
}

// flight is one in-flight build; joiners block on done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns an empty table holding at most max completed entries,
// evicting the oldest completed entry past the bound; max <= 0 is
// unbounded. In-flight builds are never evicted.
func New[K comparable, V any](max int) *Table[K, V] {
	return &Table[K, V]{done: make(map[K]V), flights: make(map[K]*flight[V]), max: max}
}

// Do returns the value for key, building it at most once across all
// concurrent callers. The first caller for an absent key becomes the
// leader: it runs build, publishes the result and wakes the joiners.
// Joiners abort when their own ctx is done. A failed build is not
// cached: the error reaches the leader, while joiners that are still
// live re-elect a leader and rebuild when the flight was cancelled (one
// client's disconnect never fails another client's identical request)
// and receive the error otherwise. A caller that joins a cancelled
// flight and then rebuilds reports Built — the outcome describes how
// the returned value was finally obtained.
func (t *Table[K, V]) Do(ctx context.Context, key K, build func(context.Context) (V, error)) (V, Outcome, error) {
	var zero V
	for {
		t.mu.Lock()
		if v, ok := t.done[key]; ok {
			t.mu.Unlock()
			t.hits.Add(1)
			return v, Hit, nil
		}
		if fl, ok := t.flights[key]; ok {
			t.mu.Unlock()
			t.waits.Add(1)
			select {
			case <-fl.done:
			case <-ctx.Done():
				return zero, Joined, ctx.Err()
			}
			if fl.err == nil {
				return fl.val, Joined, nil
			}
			if err := ctx.Err(); err != nil {
				return zero, Joined, err
			}
			if errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded) {
				continue // the flight has been cleared: lead or join afresh
			}
			return zero, Joined, fl.err
		}
		fl := &flight[V]{done: make(chan struct{})}
		t.flights[key] = fl
		t.mu.Unlock()

		t.builds.Add(1)
		fl.val, fl.err = build(ctx)
		t.mu.Lock()
		delete(t.flights, key)
		if fl.err == nil {
			t.insertLocked(key, fl.val)
		}
		t.mu.Unlock()
		close(fl.done)
		if fl.err != nil {
			return zero, Built, fl.err
		}
		if t.onInsert != nil {
			t.onInsert(key, fl.val)
		}
		return fl.val, Built, nil
	}
}

// insertLocked stores a completed entry under t.mu, evicting the oldest
// completed entries past the bound.
func (t *Table[K, V]) insertLocked(key K, v V) {
	if _, ok := t.done[key]; !ok && t.max > 0 {
		t.order = append(t.order, key)
	}
	t.done[key] = v
	for t.max > 0 && len(t.order) > t.max {
		delete(t.done, t.order[0])
		t.order = t.order[1:]
	}
}

// Get returns the completed value for key without building.
func (t *Table[K, V]) Get(key K) (V, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	v, ok := t.done[key]
	return v, ok
}

// Put inserts a completed value, overwriting any present one (log
// replay). It does not fire the OnInsert hook.
func (t *Table[K, V]) Put(key K, v V) {
	t.mu.Lock()
	t.insertLocked(key, v)
	t.mu.Unlock()
}

// OnInsert registers fn to run after every leader insert — a value newly
// built by Do, not one restored via Put (so replaying a persisted log
// does not re-persist every record). fn runs outside the
// lock on the leader's goroutine, after joiners have been released.
// Call before the table is in use; not synchronized with concurrent Do.
func (t *Table[K, V]) OnInsert(fn func(K, V)) { t.onInsert = fn }

// Range calls fn for every completed entry until fn returns false. The
// entries are snapshotted under the lock, so fn runs lock-free and may
// re-enter the table; entries inserted mid-iteration are not seen.
func (t *Table[K, V]) Range(fn func(K, V) bool) {
	type kv struct {
		k K
		v V
	}
	t.mu.Lock()
	snap := make([]kv, 0, len(t.done))
	for k, v := range t.done {
		snap = append(snap, kv{k, v})
	}
	t.mu.Unlock()
	for _, e := range snap {
		if !fn(e.k, e.v) {
			return
		}
	}
}

// Len returns the number of completed entries.
func (t *Table[K, V]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.done)
}

// Stats returns a snapshot of the counters.
func (t *Table[K, V]) Stats() Stats {
	return Stats{
		Builds:  t.builds.Load(),
		Hits:    t.hits.Load(),
		Waits:   t.waits.Load(),
		Entries: t.Len(),
	}
}
