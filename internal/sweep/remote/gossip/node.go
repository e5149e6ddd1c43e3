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
	// it an observer: it initiates exchanges but advertises no address.
	Self Member
	// Seeds are merged into the table at construction, alive at
	// incarnation 0 — the static -peers/-join list that bootstraps an
	// empty table.
	Seeds []Member
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

	// Instrumentation; nil (no-op) until Instrument.
	mRounds    *obs.Counter
	mExchanges *obs.CounterVec // {direction, result}

	rndMu sync.Mutex
	rnd   *rand.Rand

	notifyMu sync.Mutex
	notified uint64 // table version last delivered to OnChange

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
		cfg:  cfg,
		log:  cfg.Logger,
		rnd:  rand.New(rand.NewSource(cfg.Seed)),
		stop: make(chan struct{}),
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
	seeds := make([]Member, 0, len(cfg.Seeds))
	for _, s := range cfg.Seeds {
		if s.ID != cfg.Self.ID {
			seeds = append(seeds, Member{ID: s.ID, URL: s.URL})
		}
	}
	n.table.Merge(seeds)
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

// Members returns the current table snapshot, sorted by id.
func (n *Node) Members() []Member { return n.table.Snapshot() }

// Suspect feeds a local failure detector's verdict into the table — the
// sweep ring's probe ejections plug in here. Unrefuted suspicions turn
// Dead after the suspicion timeout.
func (n *Node) Suspect(id string) {
	if n.table.Suspect(id) {
		n.notify()
	}
}

// Alive feeds a local detector's recovery verdict into the table — the
// sweep ring's probe readmissions plug in here.
func (n *Node) Alive(id string) {
	if n.table.Alive(id) {
		n.notify()
	}
}

// HandleExchange is the receiving half of an exchange: merge the
// caller's table, answer with ours. internal/httpapi wires it to
// POST /v1/gossip.
func (n *Node) HandleExchange(msg Message) Message {
	n.mExchanges.WithLabelValues("in", "ok").Inc()
	if n.table.Merge(msg.Members) {
		n.notify()
	}
	return Message{From: n.cfg.Self.ID, Members: n.table.Snapshot()}
}

// Round performs one gossip round synchronously: advance time-driven
// transitions, then push-pull with Fanout random dialable members. The
// background loop calls it every Interval; tests drive it directly.
func (n *Node) Round(ctx context.Context) {
	n.mRounds.Inc()
	if n.table.Tick() {
		n.notify()
	}
	targets := n.pickTargets()
	for _, m := range targets {
		tctx, cancel := context.WithTimeout(ctx, n.cfg.Timeout)
		reply, err := n.cfg.Transport(tctx, m.URL, Message{From: n.cfg.Self.ID, Members: n.table.Snapshot()})
		cancel()
		if err != nil {
			n.mExchanges.WithLabelValues("out", "error").Inc()
			n.log.Warn("gossip: exchange failed", "peer", m.ID, "err", err.Error())
			// A failed exchange is a detector signal of its own: suspect
			// the member so an unreachable node is eventually evicted
			// even when nothing else probes it.
			if n.table.Suspect(m.ID) {
				n.notify()
			}
			continue
		}
		n.mExchanges.WithLabelValues("out", "ok").Inc()
		changed := n.table.Merge(reply.Members)
		// The member answered: clear any lingering local suspicion.
		changed = n.table.Alive(m.ID) || changed
		if changed {
			n.notify()
		}
	}
}

// Instrument registers the node's metric families on reg: gossip rounds
// and exchanges, membership state transitions, the table version, and
// members by state (counted from the same Snapshot healthz membership
// reports). Call it once, before the gossip loop starts exchanging; a
// nil reg is a no-op.
func (n *Node) Instrument(reg *obs.Registry) {
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
// that have an address.
func (n *Node) pickTargets() []Member {
	var cands []Member
	for _, m := range n.table.Snapshot() {
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
	// snapshot and deliver that snapshot twice.
	v, ms := n.table.versionedSnapshot()
	if v == n.notified {
		return
	}
	n.notified = v
	n.cfg.OnChange(ms)
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
