package remote

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dramtherm/internal/sim"
	"dramtherm/internal/sweep"
)

// mkRing builds a ring over ids with every member admitted — the pure
// substrate the planner tests drive, no clock or network anywhere.
func mkRing(ids []string, vnodes int) (*ring, []*peer) {
	members := make([]int, len(ids))
	ps := make([]*peer, len(ids))
	for i, id := range ids {
		members[i] = i
		ps[i] = &peer{id: id, up: true}
	}
	return buildRing(ids, members, vnodes), ps
}

// syntheticEntries iterates n synthetic cached results.
func syntheticEntries(n int) func(fn func(sweep.Key, sim.MEMSpotResult) bool) {
	return func(fn func(sweep.Key, sim.MEMSpotResult) bool) {
		for i := 0; i < n; i++ {
			if !fn(sweep.Key(fmt.Sprintf("digest|spec-%d", i)), sim.MEMSpotResult{Seconds: float64(i)}) {
				return
			}
		}
	}
}

// TestPlanHandoffJoin checks the membership-delta planner on a pure
// join: with K cached keys and a 5th member joining, the joiner becomes
// owner of ~K/5 keys and successor of ~K/5 more, so the planned set is
// ~2K/5 — and every planned line targets the joiner, since nobody else
// gained responsibility.
func TestPlanHandoffJoin(t *testing.T) {
	const K = 500
	old := []string{"p0", "p1", "p2", "p3"}
	oldRing, oldPeers := mkRing(old, 64)
	newRing, newPeers := mkRing(append(old, "p4"), 64)

	plan := planHandoff(oldRing, oldPeers, newRing, newPeers, nil, syntheticEntries(K))
	if plan.promotions != 0 {
		t.Fatalf("pure join planned %d promotions", plan.promotions)
	}
	for dest := range plan.moves {
		if dest != "p4" {
			t.Fatalf("pure join planned a move to %s (only the joiner gained responsibility)", dest)
		}
	}
	moved := len(plan.moves["p4"])
	// Expect ~2K/5 = 200; vnode placement wobbles, so accept a wide band
	// that still rules out "everything" (500) and "owner-share only" (100).
	if moved < K/4 || moved > K*11/20 {
		t.Fatalf("join moved %d of %d keys, want ~%d (2K/5)", moved, K, 2*K/5)
	}
	for _, ln := range plan.moves["p4"] {
		if ln.Reason != ReasonHandoff || ln.Result == nil {
			t.Fatalf("malformed planned line: %+v", ln)
		}
		newSet := respSet(newRing, newPeers, ln.Key)
		if !contains(newSet, "p4") {
			t.Fatalf("planned key %s is not in the joiner's responsibility set %v", ln.Key, newSet)
		}
	}
}

// TestPlanHandoffLeave checks the death path: removing a member promotes
// its replicas (the old successor becomes owner with no data movement)
// and streams each affected key to the one member newly in its
// responsibility set.
func TestPlanHandoffLeave(t *testing.T) {
	const K = 400
	old := []string{"a", "b", "c", "d"}
	oldRing, oldPeers := mkRing(old, 64)
	newRing, newPeers := mkRing([]string{"b", "c", "d"}, 64)

	ownedByA := 0
	syntheticEntries(K)(func(k sweep.Key, _ sim.MEMSpotResult) bool {
		if respSet(oldRing, oldPeers, string(k))[0] == "a" {
			ownedByA++
		}
		return true
	})

	plan := planHandoff(oldRing, oldPeers, newRing, newPeers, map[string]bool{"a": true}, syntheticEntries(K))
	// Consistent hashing: removing the owner always promotes the old
	// successor, so promotions == keys "a" owned.
	if plan.promotions != ownedByA {
		t.Fatalf("promotions = %d, want %d (keys the dead member owned)", plan.promotions, ownedByA)
	}
	moved := 0
	for dest, lines := range plan.moves {
		if dest == "a" {
			t.Fatal("planned a move to the departed member")
		}
		moved += len(lines)
		for _, ln := range lines {
			if contains(respSet(oldRing, oldPeers, ln.Key), dest) {
				t.Fatalf("planned %s → %s, but it was already responsible", ln.Key, dest)
			}
		}
	}
	// Every key that had "a" in its RF=2 set needs one new holder.
	if moved < K/4 || moved > K*3/4 {
		t.Fatalf("leave moved %d of %d keys, want ~%d (2K/4)", moved, K, K/2)
	}
}

// TestReplicaPlacementProperty is the RF=2 placement property test: for
// any key, the replica destination is never the peer that produced the
// result, and when the producer is the key's ring owner the replica is
// exactly the ring successor.
func TestReplicaPlacementProperty(t *testing.T) {
	ids := []string{"w0", "w1", "w2", "w3", "w4"}
	peers := make([]Peer, len(ids))
	for i, id := range ids {
		peers[i] = Peer{ID: id, URL: "http://" + id + ".invalid"}
	}
	fixed := time.Unix(1700000000, 0)
	b, err := New(Config{
		Peers:       peers,
		Key:         func(s sweep.Spec) sweep.Key { return sweep.Key(s.Mix) },
		Replication: true,
		Now:         func() time.Time { return fixed },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("prop-key-%d", i)
		cands := b.ring.candidates(key)
		if len(cands) < 2 {
			t.Fatalf("ring lost members: %d candidates", len(cands))
		}
		owner, successor := b.ringPeers[cands[0]].id, b.ringPeers[cands[1]].id
		if got := b.replicaFor(key, owner); got != successor {
			t.Fatalf("key %s: replica of owner-built result = %q, want ring successor %q", key, got, successor)
		}
		// Whoever produced it, the replica never lands on the producer.
		for _, served := range ids {
			if got := b.replicaFor(key, served); got == served {
				t.Fatalf("key %s: replica placed on the producing peer %s", key, served)
			} else if got == "" {
				t.Fatalf("key %s served by %s: no replica destination", key, served)
			}
		}
		// A producer outside the ring (a departed member) replicates to
		// the ring owner itself.
		if got := b.replicaFor(key, "departed"); got != owner {
			t.Fatalf("key %s: replica of an outsider's result = %q, want owner %q", key, got, owner)
		}
	}
}

// fakeWorker is a minimal peer: it serves /v1/exec/batch with a canned
// result per spec and records every /v1/handoff line it receives.
type fakeWorker struct {
	id  string
	srv *httptest.Server

	mu      sync.Mutex
	handoff []HandoffLine
}

func newFakeWorker(t *testing.T, id string) *fakeWorker {
	t.Helper()
	w := &fakeWorker{id: id}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+BatchPath, func(rw http.ResponseWriter, req *http.Request) {
		var breq BatchRequest
		if err := json.NewDecoder(req.Body).Decode(&breq); err != nil {
			rw.WriteHeader(http.StatusBadRequest)
			return
		}
		enc := json.NewEncoder(rw)
		for i := range breq.Specs {
			enc.Encode(BatchLine{Index: i, Key: "digest|" + breq.Specs[i].Mix, Outcome: "built", //nolint:errcheck
				Result: &sim.MEMSpotResult{Seconds: 7}})
		}
	})
	mux.HandleFunc("POST "+HandoffPath, func(rw http.ResponseWriter, req *http.Request) {
		dec := json.NewDecoder(req.Body)
		var resp HandoffResponse
		for {
			var ln HandoffLine
			if err := dec.Decode(&ln); err != nil {
				if err != io.EOF {
					rw.WriteHeader(http.StatusBadRequest)
					return
				}
				break
			}
			w.mu.Lock()
			w.handoff = append(w.handoff, ln)
			w.mu.Unlock()
			resp.Accepted++
		}
		json.NewEncoder(rw).Encode(resp) //nolint:errcheck
	})
	w.srv = httptest.NewServer(mux)
	t.Cleanup(w.srv.Close)
	return w
}

func (w *fakeWorker) handoffLines() []HandoffLine {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]HandoffLine(nil), w.handoff...)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestReplicationEndToEnd drives a real dispatch through two fake
// workers and asserts the built result is asynchronously streamed to
// the non-serving peer as an RF=2 replica.
func TestReplicationEndToEnd(t *testing.T) {
	a, c := newFakeWorker(t, "A"), newFakeWorker(t, "C")
	b, err := New(Config{
		Peers:       []Peer{{ID: "A", URL: a.srv.URL}, {ID: "C", URL: c.srv.URL}},
		Key:         func(s sweep.Spec) sweep.Key { return sweep.Key("digest|" + s.Mix) },
		Replication: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var info sweep.RunInfo
	b.RunSpecs(t.Context(), []sweep.Spec{{Mix: "W1"}}, func(_ int, _ sim.MEMSpotResult, i sweep.RunInfo, e error) {
		info, err = i, e
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "replica delivery", func() bool { return b.ReplicationStatus().Sent == 1 })

	served, other := a, c
	if info.Peer == "C" {
		served, other = c, a
	}
	if lines := served.handoffLines(); len(lines) != 0 {
		t.Fatalf("serving peer %s received its own replica: %+v", served.id, lines)
	}
	lines := other.handoffLines()
	if len(lines) != 1 || lines[0].Reason != ReasonReplica || lines[0].Key != "digest|W1" {
		t.Fatalf("successor %s handoff = %+v, want one replica of digest|W1", other.id, lines)
	}
	if lines[0].Result == nil || lines[0].Result.Seconds != 7 {
		t.Fatalf("replica carried wrong result: %+v", lines[0].Result)
	}
	st := b.ReplicationStatus()
	if !st.Enabled || st.Pending != 0 || st.Dropped != 0 {
		t.Fatalf("replication status after delivery: %+v", st)
	}
}

// TestHandoffOnJoinEndToEnd joins a third worker into a live backend
// whose coordinator holds cached results, and asserts the joiner
// receives exactly the cached results it became responsible for.
func TestHandoffOnJoinEndToEnd(t *testing.T) {
	a, c, j := newFakeWorker(t, "A"), newFakeWorker(t, "C"), newFakeWorker(t, "J")

	const K = 60
	cached := make(map[string]sim.MEMSpotResult, K)
	for i := 0; i < K; i++ {
		cached[fmt.Sprintf("digest|cached-%d", i)] = sim.MEMSpotResult{Seconds: float64(i)}
	}
	b, err := New(Config{
		Peers:       []Peer{{ID: "A", URL: a.srv.URL}, {ID: "C", URL: c.srv.URL}},
		Key:         func(s sweep.Spec) sweep.Key { return sweep.Key("digest|" + s.Mix) },
		Replication: true,
		Entries: func(fn func(sweep.Key, sim.MEMSpotResult) bool) {
			for k, v := range cached {
				if !fn(sweep.Key(k), v) {
					return
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	b.SetMembers([]Peer{{ID: "A", URL: a.srv.URL}, {ID: "C", URL: c.srv.URL}, {ID: "J", URL: j.srv.URL}})
	waitFor(t, "handoff round drained", func() bool {
		st := b.ReplicationStatus()
		return st.HandoffRounds == 1 && st.Pending == 0
	})

	lines := j.handoffLines()
	if len(lines) == 0 {
		t.Fatal("joiner received no handed-off results")
	}
	// Every line must be a key the joiner is now responsible for, with
	// the coordinator's cached result attached.
	for _, ln := range lines {
		if ln.Reason != ReasonHandoff {
			t.Fatalf("line %s has reason %q", ln.Key, ln.Reason)
		}
		want, ok := cached[ln.Key]
		if !ok || ln.Result == nil || ln.Result.Seconds != want.Seconds {
			t.Fatalf("handed-off line %s does not match the cached result", ln.Key)
		}
		if !contains(respSet(b.ring, b.ringPeers, ln.Key), "J") {
			t.Fatalf("key %s streamed to joiner but it is not responsible", ln.Key)
		}
	}
	if st := b.ReplicationStatus(); st.HandoffKeys != int64(len(lines)) || st.Dropped != 0 {
		t.Fatalf("handoff counters %+v, want %d keys and no drops", st, len(lines))
	}
	if got := a.handoffLines(); len(got) != 0 {
		t.Fatalf("unmoved member A received %d handoff lines", len(got))
	}
	if got := c.handoffLines(); len(got) != 0 {
		t.Fatalf("unmoved member C received %d handoff lines", len(got))
	}
}
