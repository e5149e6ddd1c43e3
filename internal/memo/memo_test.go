package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheDedup hammers the table with many goroutines per key and
// asserts exactly one underlying build per key (run under -race in CI).
func TestCacheDedup(t *testing.T) {
	const (
		keys       = 8
		goroutines = 32 // per key
	)
	c := New[string, int](0)
	var builds [keys]atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				v, _, err := c.Do(context.Background(), fmt.Sprintf("k%d", k), func(context.Context) (int, error) {
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
	c := New[string, int](0)
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, _, err := c.Do(context.Background(), "slow", func(context.Context) (int, error) {
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
	if _, _, err := c.Do(ctx, "slow", func(context.Context) (int, error) { return 0, nil }); !errors.Is(err, context.Canceled) {
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
	c := New[string, int](0)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	building := make(chan struct{}, 2)
	go func() {
		_, _, err := c.Do(leaderCtx, "k", func(ctx context.Context) (int, error) {
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
		v, _, err := c.Do(context.Background(), "k", func(ctx context.Context) (int, error) {
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
	c := New[string, int](0)
	boom := errors.New("boom")
	calls := 0
	build := func(context.Context) (int, error) {
		calls++
		if calls == 1 {
			return 0, boom
		}
		return 42, nil
	}
	if _, _, err := c.Do(context.Background(), "k", build); !errors.Is(err, boom) {
		t.Fatalf("first err = %v, want boom", err)
	}
	v, _, err := c.Do(context.Background(), "k", build)
	if err != nil || v != 42 {
		t.Fatalf("retry: v=%d err=%v", v, err)
	}
	if calls != 2 {
		t.Fatalf("build calls = %d, want 2", calls)
	}
}

// TestBuildErrorReachesJoiners: a failure that is not a cancellation is
// delivered to every live joiner instead of triggering rebuilds.
func TestBuildErrorReachesJoiners(t *testing.T) {
	c := New[string, int](0)
	boom := errors.New("boom")
	release := make(chan struct{})
	go c.Do(context.Background(), "k", func(context.Context) (int, error) {
		<-release
		return 0, boom
	})
	for c.Stats().Builds == 0 {
		time.Sleep(time.Millisecond)
	}
	joined := make(chan error, 1)
	go func() {
		_, out, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
			t.Error("joiner rebuilt after a non-cancellation failure")
			return 0, nil
		})
		if out != Joined {
			t.Errorf("outcome = %v, want joined", out)
		}
		joined <- err
	}()
	for c.Stats().Waits == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-joined; !errors.Is(err, boom) {
		t.Fatalf("joiner err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed build was cached")
	}
}

func constBuild(v int) func(context.Context) (int, error) {
	return func(context.Context) (int, error) { return v, nil }
}

// TestEvictionBound: past the bound the oldest completed entry goes, an
// in-flight key is never evicted, and an evicted key rebuilds as Built.
func TestEvictionBound(t *testing.T) {
	ctx := context.Background()
	c := New[int, int](2)

	// Hold key 0 in flight while three others complete.
	release := make(chan struct{})
	flightDone := make(chan Outcome, 1)
	go func() {
		_, out, _ := c.Do(ctx, 0, func(context.Context) (int, error) {
			<-release
			return 100, nil
		})
		flightDone <- out
	}()
	for c.Stats().Builds == 0 {
		time.Sleep(time.Millisecond)
	}
	for k := 1; k <= 3; k++ {
		if _, out, _ := c.Do(ctx, k, constBuild(k)); out != Built {
			t.Fatalf("key %d: outcome %v, want built", k, out)
		}
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("oldest completed entry not evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	close(release)
	if out := <-flightDone; out != Built {
		t.Fatalf("in-flight key outcome %v, want built", out)
	}
	if v, ok := c.Get(0); !ok || v != 100 {
		t.Fatalf("in-flight key evicted or lost: %d, %v", v, ok)
	}
	if _, ok := c.Get(2); ok {
		t.Fatal("completing the flight did not evict the then-oldest entry")
	}
	if v, out, _ := c.Do(ctx, 1, constBuild(11)); out != Built || v != 11 {
		t.Fatalf("evicted key: v=%d outcome %v, want 11 built", v, out)
	}

	// Put respects the bound, and overwriting a key keeps its age.
	c.Put(3, 33)
	c.Put(4, 4)
	c.Put(3, 34)
	c.Put(5, 5)
	if _, ok := c.Get(3); ok || c.Len() != 2 {
		t.Fatalf("Put ignored the bound or an overwrite renewed its key: len %d", c.Len())
	}
	if v, ok := c.Get(4); !ok || v != 4 {
		t.Fatalf("key 4 = %d, %v, want 4", v, ok)
	}
}

// TestOnInsertLeaderOnly: the hook fires on leader inserts, not on Put.
func TestOnInsertLeaderOnly(t *testing.T) {
	c := New[string, int](0)
	var seen []string
	c.OnInsert(func(k string, _ int) { seen = append(seen, k) })
	c.Put("put", 1)
	c.Do(context.Background(), "put", constBuild(0)) // hit
	c.Do(context.Background(), "built", constBuild(3))
	if _, _, err := c.Do(context.Background(), "failed", func(context.Context) (int, error) {
		return 0, errors.New("boom")
	}); err == nil {
		t.Fatal("build error swallowed")
	}
	if len(seen) != 1 || seen[0] != "built" {
		t.Fatalf("OnInsert saw %v, want [built]", seen)
	}
}

// TestRangeReentrant: Range callbacks may call back into the table,
// including inserting, without deadlocking.
func TestRangeReentrant(t *testing.T) {
	c := New[int, int](0)
	for k := 0; k < 4; k++ {
		c.Put(k, k)
	}
	visited := 0
	c.Range(func(k, v int) bool {
		visited++
		if got, ok := c.Get(k); !ok || got != v {
			t.Errorf("Get(%d) inside Range = %d, %v", k, got, ok)
		}
		c.Put(k+100, v)
		c.Do(context.Background(), k+200, constBuild(v))
		return true
	})
	if visited != 4 {
		t.Fatalf("visited %d entries, want 4 (mid-iteration inserts are not seen)", visited)
	}
	if c.Len() != 12 {
		t.Fatalf("len = %d, want 12", c.Len())
	}
	stopped := 0
	c.Range(func(int, int) bool { stopped++; return false })
	if stopped != 1 {
		t.Fatalf("visitor ran %d times after declining, want 1", stopped)
	}
}
