package sweep

import (
	"context"
	"errors"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dramtherm/internal/obs"
)

// numShards keeps shard-lock contention negligible even when every
// GOMAXPROCS worker touches the cache at once.
const numShards = 16

// Cache is a sharded, singleflight-deduplicating build cache: Do returns
// the cached value for a key, joins an in-flight build of the same key,
// or becomes the leader that builds it. Leaders run on a worker pool
// bounded at construction, so any number of concurrent distinct keys
// degrade gracefully to pool-width parallelism.
type Cache[V any] struct {
	shards [numShards]shard[V]
	seed   maphash.Seed
	sem    chan struct{}

	builds atomic.Int64 // builder invocations (unique work)
	hits   atomic.Int64 // completed-entry lookups
	waits  atomic.Int64 // joins of an in-flight build (deduplicated work)

	buildDur *obs.Histogram // leader build latency; nil until Instrument

	onInsert func(Key, V) // leader-insert hook; nil until OnInsert
}

type shard[V any] struct {
	mu      sync.Mutex
	done    map[Key]V
	flights map[Key]*flight[V]
}

// flight is one in-flight build; waiters block on done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewCache returns a cache whose leaders run on a pool of the given
// width; workers <= 0 selects GOMAXPROCS.
func NewCache[V any](workers int) *Cache[V] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c := &Cache[V]{seed: maphash.MakeSeed(), sem: make(chan struct{}, workers)}
	for i := range c.shards {
		c.shards[i].done = make(map[Key]V)
		c.shards[i].flights = make(map[Key]*flight[V])
	}
	return c
}

// Workers returns the pool width.
func (c *Cache[V]) Workers() int { return cap(c.sem) }

func (c *Cache[V]) shardOf(key Key) *shard[V] {
	return &c.shards[maphash.String(c.seed, string(key))%numShards]
}

// Outcome reports how a Do call was served: by running the builder, by
// a completed cache entry, or by joining another caller's in-flight
// build.
type Outcome int

const (
	// Built: this caller was the leader and ran the builder itself.
	Built Outcome = iota
	// Hit: served from a completed cache entry, no work at all.
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

// Do returns the value for key, building it at most once across all
// concurrent callers. The first caller for an absent key becomes the
// leader: it takes a pool slot, runs build, publishes the result and
// wakes the followers. Followers (and leaders waiting for a pool slot)
// abort when their own ctx is done. A failed build is not cached: the
// error reaches the leader and any follower whose own ctx is also done,
// while followers that are still live elect a new leader and rebuild —
// one client's disconnect never fails another client's identical
// request. A later Do after a failure retries from scratch.
func (c *Cache[V]) Do(ctx context.Context, key Key, build func(context.Context) (V, error)) (V, error) {
	v, _, err := c.DoTraced(ctx, key, build)
	return v, err
}

// DoTraced is Do plus the Outcome: whether this caller built the value,
// found it completed, or joined an in-flight build. A caller that joins
// a failing flight and then rebuilds reports Built — the outcome
// describes how the returned value was finally obtained.
func (c *Cache[V]) DoTraced(ctx context.Context, key Key, build func(context.Context) (V, error)) (V, Outcome, error) {
	var zero V
	sh := c.shardOf(key)
	for {
		sh.mu.Lock()
		if v, ok := sh.done[key]; ok {
			sh.mu.Unlock()
			c.hits.Add(1)
			return v, Hit, nil
		}
		if fl, ok := sh.flights[key]; ok {
			sh.mu.Unlock()
			c.waits.Add(1)
			select {
			case <-fl.done:
			case <-ctx.Done():
				return zero, Joined, ctx.Err()
			}
			if fl.err == nil {
				return fl.val, Joined, nil
			}
			// The leader failed. If we are still live, loop and take
			// (or share) leadership of a fresh build; the flight has
			// been cleared. Otherwise report our own cancellation.
			if err := ctx.Err(); err != nil {
				return zero, Joined, err
			}
			if errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded) {
				continue
			}
			return zero, Joined, fl.err
		}
		fl := &flight[V]{done: make(chan struct{})}
		sh.flights[key] = fl
		sh.mu.Unlock()

		// Leader path: bounded by the worker pool.
		select {
		case c.sem <- struct{}{}:
		case <-ctx.Done():
			c.abort(sh, key, fl, ctx.Err())
			return zero, Built, ctx.Err()
		}
		c.builds.Add(1)
		var t0 time.Time
		if c.buildDur != nil {
			t0 = time.Now()
		}
		v, err := build(ctx)
		if c.buildDur != nil {
			c.buildDur.Observe(time.Since(t0).Seconds())
		}
		<-c.sem

		if err != nil {
			c.abort(sh, key, fl, err)
			return zero, Built, err
		}
		fl.val = v
		sh.mu.Lock()
		sh.done[key] = v
		delete(sh.flights, key)
		sh.mu.Unlock()
		close(fl.done)
		if c.onInsert != nil {
			c.onInsert(key, v)
		}
		return v, Built, nil
	}
}

// abort publishes a failure to followers and clears the flight so a
// later Do can retry.
func (c *Cache[V]) abort(sh *shard[V], key Key, fl *flight[V], err error) {
	fl.err = err
	sh.mu.Lock()
	delete(sh.flights, key)
	sh.mu.Unlock()
	close(fl.done)
}

// Get returns the completed value for key without building.
func (c *Cache[V]) Get(key Key) (V, bool) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v, ok := sh.done[key]
	return v, ok
}

// Put inserts a completed value directly (used by state replay and
// tests).
func (c *Cache[V]) Put(key Key, v V) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	sh.done[key] = v
	sh.mu.Unlock()
}

// OnInsert registers fn to run after every leader-path insert — a value
// newly built by Do, not entries restored via Put (so replaying a
// persisted log does not re-persist every record). fn runs outside the
// shard lock on the leader's goroutine; it must not call back into the
// cache for the same key. Call before the cache is in use; not
// synchronized with concurrent Do.
func (c *Cache[V]) OnInsert(fn func(Key, V)) { c.onInsert = fn }

// Range calls fn for every completed entry until fn returns false. Each
// shard is snapshotted under its lock, so fn itself runs lock-free and
// may touch the cache; entries inserted mid-iteration may or may not be
// seen.
func (c *Cache[V]) Range(fn func(Key, V) bool) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		snap := make(map[Key]V, len(sh.done))
		for k, v := range sh.done {
			snap[k] = v
		}
		sh.mu.Unlock()
		for k, v := range snap {
			if !fn(k, v) {
				return
			}
		}
	}
}

// Len returns the number of completed entries.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].done)
		c.shards[i].mu.Unlock()
	}
	return n
}

// Stats summarizes cache traffic.
type Stats struct {
	// Builds counts builder invocations — the unique simulations run.
	Builds int64 `json:"builds"`
	// Hits counts lookups served from a completed entry.
	Hits int64 `json:"hits"`
	// Waits counts lookups that joined an in-flight build — requests a
	// singleflight saved from duplicate simulation.
	Waits int64 `json:"waits"`
	// Entries is the completed-entry count.
	Entries int `json:"entries"`
}

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Builds:  c.builds.Load(),
		Hits:    c.hits.Load(),
		Waits:   c.waits.Load(),
		Entries: c.Len(),
	}
}
