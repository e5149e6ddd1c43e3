package remote

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"dramtherm/internal/sim"
	"dramtherm/internal/sweep"
)

func testIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("peer-%d", i)
	}
	return ids
}

func allMembers(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

// TestRingDeterministic: the same membership must produce the same
// routing, across rebuilds and across processes (FNV, not maphash).
func TestRingDeterministic(t *testing.T) {
	ids := testIDs(4)
	a := buildRing(ids, allMembers(4), 64)
	b := buildRing(ids, allMembers(4), 64)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("spec-%d", i)
		ca, cb := a.candidates(key), b.candidates(key)
		if fmt.Sprint(ca) != fmt.Sprint(cb) {
			t.Fatalf("key %q: rebuilt ring routes %v, want %v", key, cb, ca)
		}
	}
}

// TestRingCandidates: every lookup yields all members, each exactly
// once, owner first.
func TestRingCandidates(t *testing.T) {
	ids := testIDs(5)
	r := buildRing(ids, allMembers(5), 32)
	for i := 0; i < 50; i++ {
		c := r.candidates(fmt.Sprintf("key-%d", i))
		if len(c) != 5 {
			t.Fatalf("key %d: %d candidates, want 5", i, len(c))
		}
		seen := map[int]bool{}
		for _, p := range c {
			if seen[p] {
				t.Fatalf("key %d: duplicate candidate %d in %v", i, p, c)
			}
			seen[p] = true
		}
	}
	if got := (&ring{}).candidates("x"); got != nil {
		t.Fatalf("empty ring returned candidates %v", got)
	}
}

// TestRingDistribution: with enough vnodes no peer should own a wildly
// disproportionate share of keys.
func TestRingDistribution(t *testing.T) {
	const peers, keys = 4, 4000
	r := buildRing(testIDs(peers), allMembers(peers), 64)
	counts := make([]int, peers)
	for i := 0; i < keys; i++ {
		counts[r.candidates(fmt.Sprintf("W%d|policy-%d", i%12, i))[0]]++
	}
	for p, n := range counts {
		// Fair share is 1000; accept a generous 3x spread either way.
		if n < keys/peers/3 || n > keys*3/peers {
			t.Fatalf("peer %d owns %d of %d keys (distribution %v)", p, n, keys, counts)
		}
	}
}

// TestRingStabilityUnderEjection: ejecting one member must not reroute
// keys owned by the survivors — that is the point of consistent hashing
// (the survivors' run caches stay hot).
func TestRingStabilityUnderEjection(t *testing.T) {
	ids := testIDs(4)
	full := buildRing(ids, allMembers(4), 64)
	without3 := buildRing(ids, []int{0, 1, 2}, 64)
	moved := 0
	const keys = 2000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := full.candidates(key)[0]
		after := without3.candidates(key)[0]
		if before != 3 && before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d of %d surviving-peer keys rerouted after ejecting peer 3", moved, keys)
	}
}

// TestRingRebalanceProperty: the consistent-hashing contract under
// membership change. Over K sampled spec keys, a single join or leave
// on an N-peer ring may move at most roughly its fair share — K/N plus
// vnode-variance slack — and every move must involve the changed peer:
// keys between two surviving peers never reshuffle among themselves.
func TestRingRebalanceProperty(t *testing.T) {
	const peers, keys = 5, 2000
	slack := keys / 10
	ids := testIDs(peers + 1)
	ownerOf := func(r *ring, i int) int { return r.candidates(fmt.Sprintf("W%d|spec-%d|lim=%d", i%12, i, i%7))[0] }

	base := buildRing(ids[:peers], allMembers(peers), 64)

	t.Run("leave", func(t *testing.T) {
		leaver := 3
		var members []int
		for i := 0; i < peers; i++ {
			if i != leaver {
				members = append(members, i)
			}
		}
		after := buildRing(ids[:peers], members, 64)
		moved := 0
		for i := 0; i < keys; i++ {
			before, now := ownerOf(base, i), ownerOf(after, i)
			if before != now {
				moved++
				if before != leaver {
					t.Fatalf("key %d moved %d→%d; only the leaver's keys may move", i, before, now)
				}
			}
		}
		if max := keys/peers + slack; moved > max {
			t.Fatalf("leave moved %d of %d keys, want at most ~K/N=%d+%d slack", moved, keys, keys/peers, slack)
		}
	})

	t.Run("join", func(t *testing.T) {
		joiner := peers // a 6th peer joins
		after := buildRing(ids, allMembers(peers+1), 64)
		moved := 0
		for i := 0; i < keys; i++ {
			before, now := ownerOf(base, i), ownerOf(after, i)
			if before != now {
				moved++
				if now != joiner {
					t.Fatalf("key %d moved %d→%d; joins may only move keys onto the joiner", i, before, now)
				}
			}
		}
		if max := keys/(peers+1) + slack; moved > max {
			t.Fatalf("join moved %d of %d keys, want at most ~K/(N+1)=%d+%d slack", moved, keys, keys/(peers+1), slack)
		}
		if moved == 0 {
			t.Fatal("join moved no keys; the joiner would idle forever")
		}
	})
}

// TestRingOwnershipIgnoresMembershipOrder: two rings independently
// built from the same membership table — fed in different orders, as
// two gossiping coordinators may hold it — must route every key to the
// same peer id.
func TestRingOwnershipIgnoresMembershipOrder(t *testing.T) {
	ids := testIDs(5)
	perm := []string{ids[3], ids[0], ids[4], ids[2], ids[1]}
	a := buildRing(ids, allMembers(5), 64)
	b := buildRing(perm, allMembers(5), 64)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("spec-%d", i)
		ownerA := ids[a.candidates(key)[0]]
		ownerB := perm[b.candidates(key)[0]]
		if ownerA != ownerB {
			t.Fatalf("key %q owned by %s on ring A but %s on permuted ring B", key, ownerA, ownerB)
		}
	}
}

// TestBackendOwnershipIgnoresMembershipOrder is the same determinism
// property one level up: two backends fed the same membership table in
// different orders (one statically, one through SetMembers deltas)
// agree on every spec's owner.
func TestBackendOwnershipIgnoresMembershipOrder(t *testing.T) {
	peers := make([]Peer, 4)
	for i := range peers {
		peers[i] = Peer{ID: fmt.Sprintf("peer-%d", i), URL: fmt.Sprintf("http://192.0.2.%d:9", i+1)}
	}
	key := func(s sweep.Spec) sweep.Key { return sweep.Key(s.String()) }
	a, err := New(Config{Peers: peers, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{Peers: []Peer{peers[2], peers[0]}, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.SetMembers([]Peer{peers[3], peers[1], peers[2], peers[0]})
	for i := 0; i < 200; i++ {
		spec := sweep.Spec{Mix: fmt.Sprintf("W%d", i%12+1), Policy: fmt.Sprintf("p-%d", i)}
		if oa, ob := a.OwnerOf(spec), b.OwnerOf(spec); oa != ob {
			t.Fatalf("spec %s owned by %q statically but %q via SetMembers", spec, oa, ob)
		}
	}
}

// TestBackendChurnRace hammers routing, ejection, half-open readmission
// and status snapshots concurrently; run with -race. Peers point at
// dead addresses, so every dispatch also exercises the failure path.
func TestBackendChurnRace(t *testing.T) {
	peers := make([]Peer, 6)
	for i := range peers {
		// Reserved TEST-NET-1 addresses: dial fails fast or times out.
		peers[i] = Peer{ID: fmt.Sprintf("p%d", i), URL: fmt.Sprintf("http://192.0.2.%d:9", i+1)}
	}
	b, err := New(Config{
		Peers:   peers,
		Key:     func(s sweep.Spec) sweep.Key { return sweep.Key(s.String()) },
		Backoff: time.Microsecond, // immediate half-open readmission → constant ring churn
		Client:  &http.Client{Timeout: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil && i < 50; i++ {
				spec := sweep.Spec{Mix: fmt.Sprintf("W%d", (g*50+i)%12+1)}
				var err error
				delivered := false
				b.RunSpecs(ctx, []sweep.Spec{spec}, func(_ int, _ sim.MEMSpotResult, info sweep.RunInfo, e error) {
					delivered, err = true, e
					if e == nil {
						err = fmt.Errorf("served by %q", info.Peer)
					}
				})
				if ctx.Err() != nil {
					return
				}
				if !delivered || !errors.Is(err, sweep.ErrRunLocal) {
					t.Errorf("dead-peer run: delivered=%v err=%v, want an ErrRunLocal hand-back", delivered, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil && i < 200; i++ {
				b.mu.RLock()
				p := b.peers[(g*7+i)%len(b.peers)]
				b.mu.RUnlock()
				if i%2 == 0 {
					b.eject(p, fmt.Errorf("churn"))
				} else {
					b.readmitExpired()
				}
				b.Status()
				b.OwnerOf(sweep.Spec{Mix: "W1"})
			}
		}(g)
	}
	// Membership churn races the health churn: gossip deltas grow and
	// shrink the ring while dispatches and ejections are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ctx.Err() == nil && i < 200; i++ {
			n := 3 + i%4 // between 3 and 6 members
			b.SetMembers(peers[:n])
		}
		b.SetMembers(peers) // leave full membership for the runners
	}()
	wg.Wait()
}
