package gossip

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// mesh is an in-memory gossip cluster on a fake clock: transports are
// direct HandleExchange calls, with deterministic message drops and
// per-node partitions injected between rounds. No goroutines, no
// network, no wall clock — every test run takes the same path.
type mesh struct {
	t     *testing.T
	clk   *fakeClock
	nodes map[string]*Node
	order []string

	mu          sync.Mutex
	rnd         *rand.Rand
	dropPercent int
	partitioned map[string]bool
}

func newMesh(t *testing.T, n int, dropPercent int, seed int64) *mesh {
	m := &mesh{
		t:           t,
		clk:         newFakeClock(),
		nodes:       make(map[string]*Node),
		rnd:         rand.New(rand.NewSource(seed)),
		dropPercent: dropPercent,
		partitioned: make(map[string]bool),
	}
	for i := 0; i < n; i++ {
		m.add(fmt.Sprintf("node-%d", i), i)
	}
	return m
}

// add joins a node to the mesh, seeded with node-0 (the join pattern:
// every newcomer knows one seed, gossip spreads the rest).
func (m *mesh) add(id string, seedIdx int) *Node {
	var seeds []string
	if id != "node-0" {
		seeds = []string{m.url("node-0")}
	}
	node, err := NewNode(Config{
		Self:         Member{ID: id, URL: m.url(id)},
		Seeds:        seeds,
		Interval:     -1, // tests drive Round directly
		Fanout:       2,
		SuspectAfter: 3 * time.Second,
		Quarantine:   time.Hour,
		Transport:    m.transport(id),
		Now:          m.clk.now,
		Seed:         int64(seedIdx) + 42,
	})
	if err != nil {
		m.t.Fatal(err)
	}
	m.nodes[id] = node
	m.order = append(m.order, id)
	return node
}

func (m *mesh) url(id string) string { return "mesh://" + id }

// transport resolves mesh URLs to direct HandleExchange calls,
// simulating loss (dropPercent of exchanges vanish) and partitions
// (all traffic to or from a partitioned node fails).
func (m *mesh) transport(from string) Transport {
	return func(ctx context.Context, url string, msg Message) (Message, error) {
		m.mu.Lock()
		drop := m.rnd.Intn(100) < m.dropPercent
		cut := m.partitioned[from]
		m.mu.Unlock()
		if drop {
			return Message{}, fmt.Errorf("mesh: dropped %s -> %s", from, url)
		}
		to, ok := m.nodes[url[len("mesh://"):]]
		if !ok {
			return Message{}, fmt.Errorf("mesh: no node at %s", url)
		}
		if cut || m.isPartitioned(to.cfg.Self.ID) {
			return Message{}, fmt.Errorf("mesh: partitioned %s -> %s", from, url)
		}
		return to.HandleExchange(msg), nil
	}
}

func (m *mesh) isPartitioned(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.partitioned[id]
}

func (m *mesh) setPartitioned(id string, cut bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.partitioned[id] = cut
}

// round advances the fake clock and runs one gossip round on every
// node, in stable order.
func (m *mesh) round(dt time.Duration) {
	m.clk.advance(dt)
	for _, id := range m.order {
		m.nodes[id].Round(context.Background())
	}
}

// converged reports whether every node's snapshot is identical and
// shows all n members in the given state.
func (m *mesh) converged(want State) bool {
	var ref []Member
	for i, id := range m.order {
		snap := m.nodes[id].Members()
		if len(snap) != len(m.order) {
			return false
		}
		for _, mem := range snap {
			if mem.State != want {
				return false
			}
		}
		if i == 0 {
			ref = snap
		} else if !reflect.DeepEqual(ref, snap) {
			return false
		}
	}
	return true
}

// TestConvergenceUnderDrop: a 5-node mesh where every node initially
// knows only the first seed, and 30% of all exchanges are dropped, must
// still converge every table to the identical all-alive view within a
// bounded number of rounds.
func TestConvergenceUnderDrop(t *testing.T) {
	const nodes, maxRounds = 5, 30
	m := newMesh(t, nodes, 30, 7)
	for r := 1; r <= maxRounds; r++ {
		m.round(100 * time.Millisecond)
		if m.converged(Alive) {
			t.Logf("converged after %d rounds", r)
			return
		}
	}
	for _, id := range m.order {
		t.Logf("%s: %v", id, m.nodes[id].Members())
	}
	t.Fatalf("5-node mesh with 30%% drop did not converge in %d rounds", maxRounds)
}

// TestPartitionedNodeRefutesItsDeath: a node cut off long enough to be
// declared dead must, once healed, learn of its own death through an
// exchange and refute it with an incarnation bump that every other node
// then adopts.
func TestPartitionedNodeRefutesItsDeath(t *testing.T) {
	const nodes, maxRounds = 5, 40
	m := newMesh(t, nodes, 0, 11)
	for r := 0; r < 10 && !m.converged(Alive); r++ {
		m.round(100 * time.Millisecond)
	}
	if !m.converged(Alive) {
		t.Fatal("mesh did not converge before the partition")
	}

	// Partition node-4. Failed exchanges make the others suspect it;
	// after SuspectAfter with no refutation they confirm it dead.
	m.setPartitioned("node-4", true)
	dead := func() bool {
		for _, id := range m.order[:nodes-1] {
			mem, ok := stateOf(t, m.nodes[id].table, "node-4")
			if !ok || mem.State != Dead {
				return false
			}
		}
		return true
	}
	for r := 0; r < maxRounds && !dead(); r++ {
		m.round(500 * time.Millisecond)
	}
	if !dead() {
		t.Fatal("partitioned node-4 was never confirmed dead by the others")
	}

	// Heal. node-4 exchanges with someone, sees itself dead in the
	// reply, bumps its incarnation and re-asserts alive; the bump
	// outbids the death rumor everywhere.
	m.setPartitioned("node-4", false)
	for r := 0; r < maxRounds; r++ {
		m.round(100 * time.Millisecond)
		if m.converged(Alive) {
			refuted, _ := stateOf(t, m.nodes["node-0"].table, "node-4")
			if refuted.Incarnation == 0 {
				t.Fatalf("node-4 converged alive at incarnation 0; refutation must bump it")
			}
			t.Logf("node-4 refuted its death at incarnation %d after %d healed rounds", refuted.Incarnation, r+1)
			return
		}
	}
	for _, id := range m.order {
		t.Logf("%s: %v", id, m.nodes[id].Members())
	}
	t.Fatal("healed node-4 never refuted its death")
}

// TestJoinPropagates: a node added to a converged mesh through a single
// seed becomes visible on every table within a bounded number of
// rounds, and OnChange observers see the delta.
func TestJoinPropagates(t *testing.T) {
	const maxRounds = 30
	m := newMesh(t, 4, 20, 13)
	for r := 0; r < 15 && !m.converged(Alive); r++ {
		m.round(100 * time.Millisecond)
	}
	if !m.converged(Alive) {
		t.Fatal("mesh did not converge before the join")
	}
	m.add("node-4", 4)
	for r := 0; r < maxRounds; r++ {
		m.round(100 * time.Millisecond)
		if m.converged(Alive) {
			t.Logf("join propagated after %d rounds", r+1)
			return
		}
	}
	t.Fatalf("join of node-4 did not propagate in %d rounds", maxRounds)
}

// TestOnChangeDeltasAreOrderedAndDeduplicated: concurrent merges must
// deliver snapshots to OnChange serialized, without repeating a version.
func TestOnChangeDeltasAreOrderedAndDeduplicated(t *testing.T) {
	var mu sync.Mutex
	var sizes []int
	n, err := NewNode(Config{
		Self:     Member{ID: "self", URL: "http://self"},
		Interval: -1,
		OnChange: func(ms []Member) {
			mu.Lock()
			sizes = append(sizes, len(ms))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				n.HandleExchange(Message{From: "x", Members: []Member{member(fmt.Sprintf("m-%d-%d", g, i), 0, Alive)}})
			}
		}(g)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(sizes) == 0 {
		t.Fatal("OnChange never fired")
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatalf("OnChange snapshots went backwards: sizes %v", sizes)
		}
	}
	// 160 adds happened; the last delivered snapshot must be complete
	// (self + 160) even if intermediate versions were coalesced.
	if got := sizes[len(sizes)-1]; got != 161 {
		t.Fatalf("final OnChange snapshot has %d members, want 161", got)
	}
}
