package gossip

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"dramtherm/internal/obs"
)

// Transport carries one exchange to the member at url and returns its
// reply. The default posts JSON to url+Path; tests substitute in-memory
// meshes with injected drops and partitions.
type Transport func(ctx context.Context, url string, msg Message) (Message, error)

// Config tunes a Node. Self.ID is required; every other zero value
// selects a default.
type Config struct {
	// Self names this node in every table it touches. An empty URL makes
	// it an observer: it gossips, but advertises no address, so no ring
	// built from the table can hold it.
	Self Member
	// Seeds are base URLs dialled every round until a member answers
	// from one, and again whenever that member is dead or forgotten. The
	// node then reaches the member at the URL it dialled, whatever
	// address the member advertises.
	Seeds []string
	// Interval is the gossip round period (default 1s; < 0 disables the
	// background loop — Round can still be called directly).
	Interval time.Duration
	// Fanout is how many random members each round exchanges with
	// (default 3).
	Fanout int
	// SuspectAfter is how long a Suspect member may stay unrefuted
	// before it is declared Dead (default 5×Interval).
	SuspectAfter time.Duration
	// Quarantine is how long a Dead member is remembered before being
	// forgotten (default 30×Interval).
	Quarantine time.Duration
	// Timeout bounds one exchange (default 2s).
	Timeout time.Duration
	// Transport overrides the HTTP exchange, for tests.
	Transport Transport
	// Client overrides the HTTP client behind the default transport.
	Client *http.Client
	// OnChange, when non-nil, observes every membership change with a
	// fresh table snapshot, in change order — the seam that re-forms the
	// sweep ring. It is called from gossip and handler goroutines and
	// must not block for long.
	OnChange func([]Member)
	// Seed seeds peer selection; 0 means a time-derived seed. Tests pin
	// it for reproducible rounds.
	Seed int64
	// Logger, when non-nil, receives structured exchange-failure events
	// (default: silent).
	Logger *slog.Logger
	// Metrics, when non-nil, receives the node's metric families, before
	// the gossip loop starts: gossip rounds and exchanges, membership
	// state transitions, the table version, and members by state
	// (counted from the same snapshot healthz membership reports).
	Metrics *obs.Registry
	// Now overrides the clock, for tests.
	Now func() time.Time
}

// Node gossips one membership table: a background loop anti-entropy
// syncs it with Fanout random members per Interval, and HandleExchange
// serves the receiving half (wired to POST /v1/gossip by
// internal/httpapi). Close stops the loop; it is safe to call twice.
type Node struct {
	cfg   Config
	table *Table
	log   *slog.Logger

	// Instrumentation; nil (no-op) without Config.Metrics.
	mRounds    *obs.Counter
	mExchanges *obs.CounterVec // {direction, result}

	rndMu sync.Mutex
	rnd   *rand.Rand

	seedMu      sync.Mutex
	seeds       map[string]string // seed URL → id of the member that last answered there
	seedAnswers uint64            // bumped when a seed URL answers as a new member; guarded by seedMu

	notifyMu sync.Mutex
	notified uint64 // table version + seedAnswers last delivered to OnChange

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// NewNode builds a node over Self plus the seed members and, unless the
// interval disables it, starts the gossip loop. Call Close when done.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Self.ID == "" {
		return nil, errors.New("gossip: Config.Self.ID is required")
	}
	if cfg.Interval == 0 {
		cfg.Interval = time.Second
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 3
	}
	// Interval < 0 only disables the background loop; the time-driven
	// transitions still need positive defaults for manually-driven
	// Rounds, so derive them from a positive base.
	base := cfg.Interval
	if base <= 0 {
		base = time.Second
	}
	if cfg.SuspectAfter == 0 {
		cfg.SuspectAfter = 5 * base
	}
	if cfg.Quarantine == 0 {
		cfg.Quarantine = 30 * base
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = time.Now().UnixNano()
	}
	n := &Node{
		cfg:   cfg,
		log:   cfg.Logger,
		rnd:   rand.New(rand.NewSource(cfg.Seed)),
		seeds: make(map[string]string, len(cfg.Seeds)),
		stop:  make(chan struct{}),
	}
	if n.log == nil {
		n.log = slog.New(slog.DiscardHandler)
	}
	if n.cfg.Transport == nil {
		client := cfg.Client
		if client == nil {
			client = &http.Client{}
		}
		n.cfg.Transport = httpTransport(client)
	}
	n.table = NewTable(cfg.Self, cfg.SuspectAfter, cfg.Quarantine, cfg.Now)
	n.instrument(cfg.Metrics)
	if cfg.Interval > 0 {
		n.wg.Add(1)
		go n.loop()
	}
	return n, nil
}

// Close stops the gossip loop and waits for it to exit. In-flight
// exchanges finish on their own timeouts.
func (n *Node) Close() {
	n.once.Do(func() { close(n.stop) })
	n.wg.Wait()
}

// Members returns the current table snapshot, sorted by id, as this
// node reaches it: a member that answered at a seed URL is listed at
// that URL. Observers keep their empty URL.
func (n *Node) Members() []Member { return n.reachedAt(n.table.Snapshot()) }

// reachedAt rewrites the URL of every addressed member that answered at
// a seed URL to that URL.
func (n *Node) reachedAt(ms []Member) []Member {
	at := n.reached()
	for i := range ms {
		if url, ok := at[ms[i].ID]; ok && ms[i].URL != "" {
			ms[i].URL = url
		}
	}
	return ms
}

// reached maps each other member that answered at a seed URL to the
// first such URL in configuration order.
func (n *Node) reached() map[string]string {
	n.seedMu.Lock()
	defer n.seedMu.Unlock()
	at := make(map[string]string, len(n.seeds))
	for _, url := range n.cfg.Seeds {
		if id := n.seeds[url]; id != "" && id != n.cfg.Self.ID {
			if _, ok := at[id]; !ok {
				at[id] = url
			}
		}
	}
	return at
}

// Suspect feeds a local failure detector's verdict into the table — the
// sweep ring's dispatch-failure ejections plug in here. Unrefuted
// suspicions turn Dead after the suspicion timeout.
func (n *Node) Suspect(id string) {
	if n.table.Suspect(id) {
		n.notify()
	}
}

// HandleExchange is the receiving half of an exchange: merge the
// caller's table, note the caller as alive, answer with ours.
// internal/httpapi wires it to POST /v1/gossip.
func (n *Node) HandleExchange(msg Message) Message {
	n.mExchanges.WithLabelValues("in", "ok").Inc()
	changed := n.table.Merge(msg.Members)
	if n.table.Alive(msg.From) || changed {
		n.notify()
	}
	return Message{From: n.cfg.Self.ID, Members: n.table.Snapshot()}
}

// Round performs one gossip round synchronously: advance time-driven
// transitions, dial every seed URL with no live member behind it, then
// push-pull with Fanout random dialable members. The background loop
// calls it every Interval; tests drive it directly.
func (n *Node) Round(ctx context.Context) {
	n.mRounds.Inc()
	if n.table.Tick() {
		n.notify()
	}
	for _, url := range n.unansweredSeeds() {
		n.exchange(ctx, "", url)
	}
	for _, m := range n.pickTargets() {
		n.exchange(ctx, m.ID, m.URL)
	}
}

// exchange push-pulls with the member id at url; an empty id dials a
// seed, and whoever answers there becomes the member reached at url.
func (n *Node) exchange(ctx context.Context, id, url string) {
	tctx, cancel := context.WithTimeout(ctx, n.cfg.Timeout)
	reply, err := n.cfg.Transport(tctx, url, Message{From: n.cfg.Self.ID, Members: n.table.Snapshot()})
	cancel()
	if err != nil {
		n.mExchanges.WithLabelValues("out", "error").Inc()
		if id == "" {
			n.log.Debug("gossip: seed unanswered", "seed", url, "err", err.Error())
			return
		}
		n.log.Warn("gossip: exchange failed", "peer", id, "err", err.Error())
		// A failed exchange is a detector signal of its own: suspect
		// the member so an unreachable node is eventually evicted
		// even when nothing else dispatches to it.
		if n.table.Suspect(id) {
			n.notify()
		}
		return
	}
	n.mExchanges.WithLabelValues("out", "ok").Inc()
	changed := false
	if id == "" && reply.From != "" {
		id = reply.From
		var other string
		n.seedMu.Lock()
		if n.seeds[url] != id {
			n.seeds[url] = id
			n.seedAnswers++
			changed = true
			for _, s := range n.cfg.Seeds {
				if s != url && n.seeds[s] == id {
					other = s
				}
			}
		}
		n.seedMu.Unlock()
		if other != "" { // one id is one ring slot: one node would starve
			n.log.Warn("gossip: two seed URLs answered as the same member; "+
				"if they are different nodes, give each a distinct id or advertised URL",
				"member", id, "seed", url, "other_seed", other)
		}
	}
	changed = n.table.Merge(reply.Members) || changed
	// The member answered: clear any lingering local suspicion.
	changed = n.table.Alive(id) || changed
	if changed {
		n.notify()
	}
}

// unansweredSeeds lists the seed URLs, in configuration order, that no
// member has answered from yet or whose member is dead or forgotten.
func (n *Node) unansweredSeeds() []string {
	live := make(map[string]bool)
	for _, m := range n.table.Snapshot() {
		live[m.ID] = m.State != Dead
	}
	n.seedMu.Lock()
	defer n.seedMu.Unlock()
	var out []string
	for _, url := range n.cfg.Seeds {
		if id := n.seeds[url]; id == "" || !live[id] {
			out = append(out, url)
		}
	}
	return out
}

// instrument registers the node's metric families on reg (see
// Config.Metrics); a nil reg is a no-op.
func (n *Node) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	n.mRounds = reg.Counter("dramtherm_gossip_rounds_total",
		"Gossip rounds performed (background loop ticks plus direct Round calls).")
	n.mExchanges = reg.CounterVec("dramtherm_gossip_exchanges_total",
		"Push-pull exchanges, by direction (out: initiated, in: served) and result.",
		"direction", "result")
	n.table.transitions = reg.CounterVec("dramtherm_gossip_transitions_total",
		"Membership table transitions, by destination: joined, alive, suspect, dead, forgotten, refuted (self rumor rebutted).",
		"to")
	reg.GaugeFunc("dramtherm_gossip_table_version",
		"Membership table version; bumps on every visible change.",
		func() float64 { return float64(n.table.Version()) })
	reg.SampleFunc(obs.KindGauge, "dramtherm_gossip_members",
		"Membership table rows by state, self included.",
		[]string{"state"}, func() []obs.Sample {
			counts := map[State]int{}
			for _, m := range n.Members() {
				counts[m.State]++
			}
			out := make([]obs.Sample, 0, len(stateNames))
			for s := Alive; s <= Dead; s++ {
				out = append(out, obs.Sample{LabelValues: []string{s.String()}, Value: float64(counts[s])})
			}
			return out
		})
}

// pickTargets selects up to Fanout distinct non-self, non-dead members
// that have an address: the seed URL they answered at, else their own.
func (n *Node) pickTargets() []Member {
	at := n.reached()
	var cands []Member
	for _, m := range n.table.Snapshot() {
		if url, ok := at[m.ID]; ok {
			m.URL = url
		}
		if m.ID != n.cfg.Self.ID && m.State != Dead && m.URL != "" {
			cands = append(cands, m)
		}
	}
	n.rndMu.Lock()
	n.rnd.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	n.rndMu.Unlock()
	if len(cands) > n.cfg.Fanout {
		cands = cands[:n.cfg.Fanout]
	}
	return cands
}

// notify delivers the freshest snapshot to OnChange, serialized and
// deduplicated by table version so concurrent merges cannot reorder or
// repeat deliveries.
func (n *Node) notify() {
	if n.cfg.OnChange == nil {
		return
	}
	n.notifyMu.Lock()
	defer n.notifyMu.Unlock()
	// Version and members come from one table read: a merge landing
	// between two separate reads would pair an old version with a newer
	// snapshot and deliver that snapshot twice. A seed answering as a
	// new member changes the view without changing the table.
	v, ms := n.table.versionedSnapshot()
	n.seedMu.Lock()
	v += n.seedAnswers
	n.seedMu.Unlock()
	if v == n.notified {
		return
	}
	n.notified = v
	n.cfg.OnChange(n.reachedAt(ms))
}

func (n *Node) loop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() { defer close(done); n.Round(ctx) }()
			select {
			case <-done:
			case <-n.stop:
				cancel()
				<-done
				return
			}
			cancel()
		case <-n.stop:
			return
		}
	}
}

// httpTransport posts msg as JSON to url+Path and decodes the reply.
func httpTransport(client *http.Client) Transport {
	return func(ctx context.Context, url string, msg Message) (Message, error) {
		body, err := json.Marshal(msg)
		if err != nil {
			return Message{}, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+Path, bytes.NewReader(body))
		if err != nil {
			return Message{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return Message{}, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
			return Message{}, fmt.Errorf("gossip: %s answered %s", url, resp.Status)
		}
		var reply Message
		if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&reply); err != nil {
			return Message{}, fmt.Errorf("gossip: decoding reply from %s: %w", url, err)
		}
		if len(reply.Members) > MaxMembers {
			return Message{}, fmt.Errorf("gossip: reply from %s has %d members (max %d)", url, len(reply.Members), MaxMembers)
		}
		return reply, nil
	}
}
