package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheDedup hammers the cache with many goroutines per key and
// asserts exactly one underlying build per key (run under -race in CI).
func TestCacheDedup(t *testing.T) {
	const (
		keys       = 8
		goroutines = 32 // per key
	)
	c := NewCache[int](4)
	var builds [keys]atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				v, err := c.Do(context.Background(), Key(fmt.Sprintf("k%d", k)), func(context.Context) (int, error) {
					builds[k].Add(1)
					time.Sleep(2 * time.Millisecond) // widen the race window
					return 100 + k, nil
				})
				if err != nil {
					t.Errorf("key %d: %v", k, err)
				}
				if v != 100+k {
					t.Errorf("key %d: got %d", k, v)
				}
			}(k)
		}
	}
	wg.Wait()
	for k := range builds {
		if n := builds[k].Load(); n != 1 {
			t.Errorf("key %d built %d times, want exactly 1", k, n)
		}
	}
	st := c.Stats()
	if st.Builds != keys {
		t.Errorf("stats.Builds = %d, want %d", st.Builds, keys)
	}
	if st.Hits+st.Waits != keys*(goroutines-1) {
		t.Errorf("hits+waits = %d, want %d", st.Hits+st.Waits, keys*(goroutines-1))
	}
	if st.Entries != keys {
		t.Errorf("entries = %d, want %d", st.Entries, keys)
	}
}

// TestCacheFollowerCancel checks a follower can abandon a slow build
// without affecting the leader.
func TestCacheFollowerCancel(t *testing.T) {
	c := NewCache[int](1)
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, err := c.Do(context.Background(), "slow", func(context.Context) (int, error) {
			<-release
			return 7, nil
		})
		if err != nil || v != 7 {
			t.Errorf("leader: v=%d err=%v", v, err)
		}
	}()
	// Wait until the leader's flight is registered.
	for c.Stats().Builds == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	if _, err := c.Do(ctx, "slow", func(context.Context) (int, error) { return 0, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err = %v, want context.Canceled", err)
	}
	close(release)
	<-leaderDone
	if v, ok := c.Get("slow"); !ok || v != 7 {
		t.Fatalf("leader result lost: v=%d ok=%v", v, ok)
	}
}

// TestCacheLeaderCancelDoesNotPoisonFollower: when the leader's own ctx
// cancels mid-build, a live follower must take over leadership and get
// the value rather than inherit the leader's cancellation.
func TestCacheLeaderCancelDoesNotPoisonFollower(t *testing.T) {
	c := NewCache[int](2)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	building := make(chan struct{}, 2)
	go func() {
		_, err := c.Do(leaderCtx, "k", func(ctx context.Context) (int, error) {
			building <- struct{}{}
			<-ctx.Done()
			return 0, ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader err = %v, want context.Canceled", err)
		}
	}()
	<-building // leader is mid-build

	followerDone := make(chan error, 1)
	var followerVal int
	go func() {
		v, err := c.Do(context.Background(), "k", func(ctx context.Context) (int, error) {
			building <- struct{}{}
			return 99, nil
		})
		followerVal = v
		followerDone <- err
	}()
	// Wait for the follower to join the flight, then kill the leader.
	for c.Stats().Waits == 0 {
		time.Sleep(time.Millisecond)
	}
	cancelLeader()
	if err := <-followerDone; err != nil {
		t.Fatalf("follower inherited leader's cancellation: %v", err)
	}
	if followerVal != 99 {
		t.Fatalf("follower value = %d, want 99 (from its own re-build)", followerVal)
	}
	if v, ok := c.Get("k"); !ok || v != 99 {
		t.Fatalf("value not cached after takeover: %d, %v", v, ok)
	}
}

// TestCacheBuildErrorNotCached checks failed builds surface their error
// and retry on the next Do.
func TestCacheBuildErrorNotCached(t *testing.T) {
	c := NewCache[int](1)
	boom := errors.New("boom")
	calls := 0
	build := func(context.Context) (int, error) {
		calls++
		if calls == 1 {
			return 0, boom
		}
		return 42, nil
	}
	if _, err := c.Do(context.Background(), "k", build); !errors.Is(err, boom) {
		t.Fatalf("first err = %v, want boom", err)
	}
	v, err := c.Do(context.Background(), "k", build)
	if err != nil || v != 42 {
		t.Fatalf("retry: v=%d err=%v", v, err)
	}
	if calls != 2 {
		t.Fatalf("build calls = %d, want 2", calls)
	}
}

// TestCacheDefaultWorkers checks the GOMAXPROCS fallback.
func TestCacheDefaultWorkers(t *testing.T) {
	if NewCache[int](0).Workers() < 1 {
		t.Fatal("no workers")
	}
	if w := NewCache[int](3).Workers(); w != 3 {
		t.Fatalf("workers = %d, want 3", w)
	}
}
