package cache

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestReleaseRecyclesStorage fills a cache with dirty lines, releases it
// and checks that the next cache of that size reuses the storage yet
// cannot be told from a fresh one: same (empty) state, same results on a
// seeded random stream.
func TestReleaseRecyclesStorage(t *testing.T) {
	cfg := Config{SizeKB: 32, Ways: 4, LineBytes: 64}
	// sync.Pool may drop a released entry (on GC, and at random under the
	// race detector), so retry until one is recycled.
	for attempt := 0; attempt < 100; attempt++ {
		used := mustNew(t, cfg, 2)
		for i := 0; i < 4096; i++ {
			used.Access(i%2, uint64(i)*64, Store)
		}
		old := &used.tags[0]
		used.Release()
		used.Release() // idempotent
		if used.tags != nil {
			t.Fatal("released cache still holds its storage")
		}

		c := mustNew(t, cfg, 2)
		if &c.tags[0] != old {
			continue
		}
		fresh := mustNew(t, cfg, 2)
		if !reflect.DeepEqual(*c, *fresh) {
			t.Fatal("recycled cache state differs from a fresh cache's")
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 50000; i++ {
			addr := uint64(rng.Intn(2048)) * 64
			kind := AccessKind(rng.Intn(2))
			core := rng.Intn(2)
			if got, want := c.Access(core, addr, kind), fresh.Access(core, addr, kind); got != want {
				t.Fatalf("access %d: recycled %+v, fresh %+v", i, got, want)
			}
		}
		if !reflect.DeepEqual(*c, *fresh) {
			t.Fatal("recycled and fresh caches diverged")
		}
		return
	}
	t.Fatal("released storage was never recycled in 100 attempts")
}

// TestReleaseConcurrent recycles storage between caches on several
// goroutines at once, as concurrent level-1 builds do, and checks every
// cache still behaves like a fresh one.
func TestReleaseConcurrent(t *testing.T) {
	cfg := Config{SizeKB: 16, Ways: 4, LineBytes: 64}
	stream := func(c *Cache) Stats {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 5000; i++ {
			c.Access(0, uint64(rng.Intn(1024))*64, AccessKind(rng.Intn(2)))
		}
		return c.Stats()
	}
	want := stream(mustNew(t, cfg, 1))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c, err := New(cfg, 1)
				if err != nil {
					t.Error(err)
					return
				}
				if got := stream(c); got != want {
					t.Errorf("cache %d: stats %+v, fresh cache %+v", i, got, want)
					return
				}
				c.Release()
			}
		}()
	}
	wg.Wait()
}

// refLRU is the reference model for the stamp renormalization: the same
// replacement rule over unbounded uint64 stamps.
type refLRU struct {
	ways  int
	sets  uint64
	tags  []uint64 // line+1; 0 is empty
	dirty []bool
	stamp []uint64
	clock uint64
}

func (r *refLRU) access(line uint64, store bool) Result {
	r.clock++
	base := int(line%r.sets) * r.ways
	for i := base; i < base+r.ways; i++ {
		if r.tags[i] == line+1 {
			r.stamp[i] = r.clock
			r.dirty[i] = r.dirty[i] || store
			return Result{Hit: true}
		}
	}
	victim := base
	for i := base; i < base+r.ways; i++ {
		if r.tags[i] == 0 {
			victim = i
			break
		}
		if r.stamp[i] < r.stamp[victim] {
			victim = i
		}
	}
	var res Result
	if r.tags[victim] != 0 && r.dirty[victim] {
		res = Result{Writeback: (r.tags[victim] - 1) * 64, WritebackValid: true}
	}
	r.tags[victim], r.dirty[victim], r.stamp[victim] = line+1, store, r.clock
	return res
}

// TestClockWrapMatchesReference runs the uint32 stamp clock through many
// wraps and checks every hit, victim and writeback against the uint64
// reference model.
func TestClockWrapMatchesReference(t *testing.T) {
	c := mustNew(t, Config{SizeKB: 8, Ways: 4, LineBytes: 64}, 1)
	n := len(c.tags)
	ref := &refLRU{ways: 4, sets: uint64(c.Sets()), tags: make([]uint64, n),
		dirty: make([]bool, n), stamp: make([]uint64, n)}
	rng := rand.New(rand.NewSource(9))
	wraps := 0
	for i := 0; i < 400000; i++ {
		// Jumping the clock forward keeps every stamp below it, so the
		// order the reference sees is unchanged; it forces a wrap every
		// few thousand accesses.
		if i%20000 == 0 {
			c.clock = math.MaxUint32 - uint32(rng.Intn(5000))
		}
		before := c.clock
		line := uint64(rng.Intn(4 * n))
		kind := AccessKind(rng.Intn(3) / 2) // one store in three
		got := c.Access(0, line*64, kind)
		want := ref.access(line, kind == Store)
		if got != want {
			t.Fatalf("access %d (line %d): got %+v, reference %+v", i, line, got, want)
		}
		if c.clock < before {
			wraps++
		}
	}
	if !reflect.DeepEqual(c.tags, ref.tags) || !reflect.DeepEqual(c.dirty, ref.dirty) {
		t.Fatal("resident lines diverged from the reference")
	}
	if wraps < 10 {
		t.Fatalf("only %d clock wraps exercised", wraps)
	}
}
