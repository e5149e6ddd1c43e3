package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dramtherm/internal/obs"
	"dramtherm/internal/sim"
	"dramtherm/internal/sweep"
	"dramtherm/internal/sweep/remote/gossip"
)

// ExecPath is the synchronous single-run endpoint served by
// internal/httpapi: POST a sweep.Spec, get an ExecResponse back. It is
// a client endpoint; coordinators dispatch to peers over BatchPath.
const ExecPath = "/v1/exec"

// ExecResponse is the POST /v1/exec reply: the full simulation result
// (traces included) plus how the serving node obtained it ("built",
// "hit" or "joined").
type ExecResponse struct {
	Outcome string            `json:"outcome"`
	Result  sim.MEMSpotResult `json:"result"`
}

// Peer names one dramthermd instance runs can be dispatched to.
type Peer struct {
	// ID identifies the peer in events and status reports; when empty it
	// is derived from the URL.
	ID string
	// URL is the peer's base URL, e.g. "http://worker-1:8080".
	URL string
}

// Config tunes a Backend. Key is required; every other zero value
// selects a default. With no Peers every spec runs locally until
// SetMembers adds some.
type Config struct {
	// Peers is the initial ring membership. Peers start admitted and are
	// ejected on their first failed dispatch. A backend that Follows a
	// gossip node starts empty and takes its members from the node.
	Peers []Peer
	// Key canonicalizes a spec for consistent hashing — pass the
	// engine's Key method so the ring shards on the same identity the
	// run caches are keyed by.
	Key func(sweep.Spec) sweep.Key
	// MaxPerPeer bounds concurrent in-flight requests per peer
	// (default 4); excess dispatches to the same peer queue.
	MaxPerPeer int
	// Backoff is how long an ejected peer stays out of the ring before
	// request routing retries it half-open (default 15s).
	Backoff time.Duration
	// Client overrides the HTTP client (default: a client whose
	// transport keeps MaxPerPeer idle connections per peer).
	Client *http.Client
	// Logger, when non-nil, receives structured membership and peer
	// state-transition events (default: silent).
	Logger *slog.Logger
	// Now overrides the clock, for tests.
	Now func() time.Time
	// OnPeerDown, when non-nil, observes every up→down transition — the
	// local failure-detector output Follow feeds to gossip as a
	// suspicion. Called without locks held.
	OnPeerDown func(id string, cause error)
	// Replication enables RF=2: every result a peer builds for this
	// coordinator is asynchronously pushed to its key's ring successor
	// via POST /v1/handoff, and every member the ring admits (a join or
	// a served half-open retry) is streamed the cached results it became
	// responsible for (see Entries), the coordinator's own builds too.
	// Best-effort: delivery failures cost cache warmth, never sweep
	// correctness.
	Replication bool
	// Entries iterates the coordinator's cached results — pass the
	// engine's Range method. Required for handoff on admission; without
	// it only build-time replication runs.
	Entries func(fn func(sweep.Key, sim.MEMSpotResult) bool)
}

// Backend distributes runs across dramthermd peers by consistent
// hashing on the canonical spec key, so each peer's run cache stays hot
// for its shard of the grid. It implements sweep.BatchBackend: install
// it with Engine.SetBatchBackend, and every run the engine does not
// serve from its cache — a sweep's grid or a single Run's shard of one —
// reaches the peers as POST /v1/exec/batch requests. A peer whose
// dispatch fails is ejected and retried half-open after a backoff, and a
// shard whose peer is down or dies fails over around the ring; when no
// peer is left its specs are handed back with sweep.ErrRunLocal for
// local execution.
type Backend struct {
	cfg       Config
	client    *http.Client
	ownClient bool // we built the client, so Close may reap its idle conns
	now       func() time.Time
	log       *slog.Logger

	mu        sync.RWMutex // guards membership, peer state transitions and the ring pointer
	peers     []*peer      // current membership (SetMembers rewrites it)
	ring      *ring
	ringPeers []*peer      // the membership snapshot ring indices point into
	down      atomic.Int32 // ejected-peer count; lets the hot path skip readmitExpired

	// Replication state (replicate.go); the queue is nil unless
	// Config.Replication is set.
	replQ         chan replJob
	replSent      atomic.Int64
	replDropped   atomic.Int64
	replPending   atomic.Int64
	handoffKeys   atomic.Int64
	handoffRounds atomic.Int64
	promotions    atomic.Int64

	// Instrumentation; all nil (and therefore no-ops) until Instrument.
	mDispatch      *obs.CounterVec // {peer, kind}
	mTransition    *obs.CounterVec // {peer, to}
	mReplan        *obs.Counter
	mMoved         *obs.Counter
	mStreamBytes   *obs.Counter
	mStreamLines   *obs.Counter
	mReplSent      *obs.CounterVec // {peer}
	mReplDropped   *obs.Counter
	mHandoffKeys   *obs.CounterVec // {peer}
	mHandoffRounds *obs.Counter
	mPromotions    *obs.Counter
	prevOwners     []string // probe-key owners at the last rebuild (guarded by mu)

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// peer is one ring member plus its health state and traffic counters.
type peer struct {
	id  string
	url string
	sem chan struct{} // bounded request pool

	requests atomic.Int64
	failures atomic.Int64
	halfOpen atomic.Bool // readmitted after its backoff, no batch answered yet

	// Guarded by Backend.mu.
	up        bool
	gone      bool // removed by SetMembers; late failures must not touch counters
	downSince time.Time
	downUntil time.Time
	lastErr   string
}

// New builds a backend over the configured peers. Call Close when done.
func New(cfg Config) (*Backend, error) {
	if cfg.Key == nil {
		return nil, errors.New("remote: Config.Key is required")
	}
	if cfg.MaxPerPeer <= 0 {
		cfg.MaxPerPeer = 4
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 15 * time.Second
	}
	b := &Backend{
		cfg:    cfg,
		client: cfg.Client,
		now:    cfg.Now,
		log:    cfg.Logger,
		stop:   make(chan struct{}),
	}
	if b.client == nil {
		b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.MaxPerPeer}}
		b.ownClient = true
	}
	if b.now == nil {
		b.now = time.Now
	}
	if b.log == nil {
		b.log = slog.New(slog.DiscardHandler)
	}
	seen := make(map[string]bool, len(cfg.Peers))
	for _, pc := range cfg.Peers {
		id, url, err := canonPeer(pc)
		if err != nil {
			return nil, err
		}
		if seen[id] {
			return nil, fmt.Errorf("remote: duplicate peer id %q", id)
		}
		seen[id] = true
		b.peers = append(b.peers, &peer{
			id: id, url: url, up: true,
			sem: make(chan struct{}, cfg.MaxPerPeer),
		})
	}
	b.rebuildLocked() // no lock needed yet: b is not shared
	if cfg.Replication {
		b.replQ = make(chan replJob, replQueueDepth)
		b.wg.Add(1)
		go b.replicateLoop()
	}
	return b, nil
}

// DeriveID is the canonical URL-to-member-id derivation: trailing
// slashes dropped, scheme stripped. The ring and the gossip layer must
// agree on member identity, so every layer that names a member from
// its URL (peer configs, gossip seeds, a node's own advertised self)
// must derive through here.
func DeriveID(url string) string {
	url = strings.TrimRight(url, "/")
	return strings.TrimPrefix(strings.TrimPrefix(url, "http://"), "https://")
}

// canonPeer normalizes one configured peer: the URL loses its trailing
// slash and an empty id is derived from the URL.
func canonPeer(pc Peer) (id, url string, err error) {
	url = strings.TrimRight(pc.URL, "/")
	if url == "" {
		return "", "", fmt.Errorf("remote: peer %q has no URL", pc.ID)
	}
	id = pc.ID
	if id == "" {
		id = DeriveID(url)
	}
	return id, url, nil
}

// Close stops the replication worker and reaps the backend-owned HTTP
// client's idle connections. In-flight dispatches are not interrupted;
// cancel their contexts for that.
func (b *Backend) Close() {
	b.once.Do(func() { close(b.stop) })
	b.wg.Wait()
	if b.ownClient {
		b.client.CloseIdleConnections()
	}
}

// SetMembers replaces the backend's membership with peers, rebuilding
// the ring: new members join admitted, absent members leave (their
// in-flight requests finish, then fail over), and retained members keep
// their health state and traffic counters. This is the seam Follow
// drives, so the ring re-forms on join/leave without restarting the
// coordinator. Unusable entries (no URL) and duplicate ids are skipped.
func (b *Backend) SetMembers(peers []Peer) {
	b.mu.Lock()
	oldRing, oldRingPeers := b.ring, b.ringPeers
	current := make(map[string]*peer, len(b.peers))
	for _, p := range b.peers {
		current[p.id] = p
	}
	next := make([]*peer, 0, len(peers))
	seen := make(map[string]bool, len(peers))
	var joined, left []string
	for _, pc := range peers {
		id, url, err := canonPeer(pc)
		if err != nil || seen[id] {
			continue
		}
		seen[id] = true
		// peer.url is immutable (dispatch paths read it unlocked), so a
		// member re-announcing at a new address is a leave plus a fresh
		// join rather than an in-place rewrite.
		if p, ok := current[id]; ok && p.url == url {
			next = append(next, p)
			delete(current, id)
			continue
		}
		next = append(next, &peer{
			id: id, url: url, up: true,
			sem: make(chan struct{}, b.cfg.MaxPerPeer),
		})
		joined = append(joined, id)
	}
	for id, p := range current {
		p.gone = true
		if !p.up {
			b.down.Add(-1) // it no longer counts toward ejected membership
		}
		left = append(left, id)
	}
	changed := len(joined) > 0 || len(left) > 0
	if changed {
		b.peers = next
		b.rebuildLocked()
	}
	b.mu.Unlock()
	if changed {
		b.log.Info("remote: membership changed",
			"peers", len(next), "joined", fmt.Sprint(joined), "left", fmt.Sprint(left))
		b.handoff(oldRing, oldRingPeers, left)
	}
}

// Follow makes gossip b's only membership source: it starts a gossip
// node from cfg whose every view change becomes b's ring — each live
// member other than cfg.Self that advertises a URL, at the URL the node
// reaches it by — and passes b's dispatch-failure ejections to the node
// as suspicions, after Config.OnPeerDown. The node gossips as an
// observer (cfg.Self.URL is cleared), so no other coordinator's ring can
// hold this one. Follow runs the first round (each exchange bounded by
// the gossip exchange timeout) before it returns, so the ring holds the answering seeds
// before the backend takes traffic. Follow replaces cfg.OnChange. Call
// it once, before the backend is shared; Close the node when done.
func (b *Backend) Follow(cfg gossip.Config) (*gossip.Node, error) {
	self := cfg.Self.ID
	cfg.Self.URL = ""
	cfg.OnChange = func(ms []gossip.Member) {
		var ring []Peer
		for _, m := range ms {
			if m.ID != self && m.State != gossip.Dead && m.URL != "" {
				ring = append(ring, Peer{ID: m.ID, URL: m.URL})
			}
		}
		b.SetMembers(ring)
	}
	n, err := gossip.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	down := b.cfg.OnPeerDown
	b.cfg.OnPeerDown = func(id string, cause error) {
		if down != nil {
			down(id, cause)
		}
		n.Suspect(id)
	}
	n.Round(context.Background())
	return n, nil
}

// handoff streams the cached results a ring rebuild made members newly
// responsible for to them, before traffic lands there. Asynchronous: a
// membership change must not block on a cache walk.
func (b *Backend) handoff(oldRing *ring, oldPeers []*peer, left []string) {
	if b.cfg.Replication && b.cfg.Entries != nil {
		go b.handoffOnChange(oldRing, oldPeers, left)
	}
}

// errorBody extracts the message of a 4xx reply's structured
// {"error":{"code","message"}} envelope, falling back to the status
// line.
func errorBody(resp *http.Response) string {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var env struct {
		Error struct {
			Message string `json:"message"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error.Message != "" {
		return env.Error.Message
	}
	return resp.Status
}

// parseOutcome maps the wire outcome back to the sweep enum; anything
// unrecognized counts as a fresh build.
func parseOutcome(s string) sweep.Outcome {
	switch s {
	case sweep.Hit.String():
		return sweep.Hit
	case sweep.Joined.String():
		return sweep.Joined
	default:
		return sweep.Built
	}
}

// eject takes p out of the ring until its backoff expires. Repeated
// failures while down push the backoff forward.
func (b *Backend) eject(p *peer, cause error) {
	p.failures.Add(1)
	now := b.now()
	b.mu.Lock()
	p.lastErr = cause.Error()
	p.downUntil = now.Add(b.cfg.Backoff)
	ejected := p.up
	if ejected {
		p.up = false
		p.downSince = now
		if !p.gone {
			b.down.Add(1)
			b.rebuildLocked()
		}
		b.mTransition.WithLabelValues(p.id, "down").Inc()
		b.log.Warn("remote: peer ejected", "peer", p.id, "err", cause.Error())
	}
	b.mu.Unlock()
	if ejected && b.cfg.OnPeerDown != nil {
		b.cfg.OnPeerDown(p.id, cause)
	}
}

// readmitExpired returns ejected peers whose backoff has elapsed to the
// ring, so request routing retries them (half-open); a failure ejects
// them again, and a served batch ends the trial (see answered).
func (b *Backend) readmitExpired() {
	if b.down.Load() == 0 {
		return // all peers admitted: stay off the write lock
	}
	now := b.now()
	b.mu.Lock()
	changed := false
	for _, p := range b.peers {
		if !p.up && !now.Before(p.downUntil) {
			p.up = true
			p.halfOpen.Store(true)
			b.down.Add(-1)
			changed = true
			b.mTransition.WithLabelValues(p.id, "half_open").Inc()
			b.log.Info("remote: retrying peer after backoff", "peer", p.id)
		}
	}
	if changed {
		b.rebuildLocked()
	}
	b.mu.Unlock()
}

// answered ends p's half-open trial once it has served a batch: the
// readmission then hands off like a join. A peer still failing is
// ejected again first, so backoff expiries of a dead peer walk no cache.
func (b *Backend) answered(p *peer) {
	if !p.halfOpen.CompareAndSwap(true, false) {
		return
	}
	b.mu.RLock()
	admitted := p.up && !p.gone
	oldRing, oldPeers := b.ringOf(b.ringPeers, p), b.ringPeers
	b.mu.RUnlock()
	if admitted {
		b.handoff(oldRing, oldPeers, nil)
	}
}

// rebuildLocked recomputes the ring from the admitted peers, snapshotting
// the membership the new ring's indices point into — lookups resolved
// against an old ring stay valid even after SetMembers rewrites b.peers.
// Callers hold b.mu (or exclusive access during construction).
func (b *Backend) rebuildLocked() {
	b.ring = b.ringOf(b.peers, nil)
	b.ringPeers = append([]*peer(nil), b.peers...)
	b.countMovedLocked()
}

// ringOf builds the ring of the admitted peers other than skip, with
// indices into peers.
func (b *Backend) ringOf(peers []*peer, skip *peer) *ring {
	ids := make([]string, len(peers))
	var members []int
	for i, p := range peers {
		ids[i] = p.id
		if p.up && p != skip {
			members = append(members, i)
		}
	}
	return buildRing(ids, members, vnodes)
}

// OwnerOf reports the id of the ring member spec currently routes to —
// the first failover candidate — or "" when the ring is empty. It is a
// routing probe for observability and tests; membership changes can
// reroute the spec at any time.
func (b *Backend) OwnerOf(spec sweep.Spec) string {
	key := string(b.cfg.Key(spec))
	b.mu.RLock()
	defer b.mu.RUnlock()
	c := b.ring.candidates(key)
	if len(c) == 0 {
		return ""
	}
	return b.ringPeers[c[0]].id
}

// PeerStatus is one peer's health and traffic snapshot, reported by
// Status and surfaced in clustered healthz bodies.
type PeerStatus struct {
	ID        string     `json:"id"`
	URL       string     `json:"url"`
	Up        bool       `json:"up"`
	Requests  int64      `json:"requests"`
	Failures  int64      `json:"failures"`
	LastError string     `json:"last_error,omitempty"`
	DownSince *time.Time `json:"down_since,omitempty"`
}

// Status snapshots every peer in configuration order.
func (b *Backend) Status() []PeerStatus {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]PeerStatus, len(b.peers))
	for i, p := range b.peers {
		out[i] = PeerStatus{
			ID:        p.id,
			URL:       p.url,
			Up:        p.up,
			Requests:  p.requests.Load(),
			Failures:  p.failures.Load(),
			LastError: p.lastErr,
		}
		if !p.up {
			t := p.downSince
			out[i].DownSince = &t
		}
	}
	return out
}
