// Package gossip disseminates sweep-ring membership epidemically, so
// dramthermd workers can join and leave a running cluster without a
// coordinator restart. Each node keeps a versioned membership table
// (peer id, url, incarnation, alive/suspect/dead) and anti-entropy
// syncs it with a few random peers per interval over POST /v1/gossip:
// the caller pushes its table, the callee merges it and replies with
// its own, and the caller merges the reply (push-pull). Conflicts
// resolve SWIM-style — a higher incarnation always wins, and at equal
// incarnations the more severe state (dead > suspect > alive) wins —
// so a slow peer that learns it is suspected refutes by bumping its
// own incarnation instead of being falsely evicted. Confirmed-dead
// members linger in a quarantine state (so the death outlives stale
// alive rumors) and are forgotten after a TTL. Seeds are addresses: a
// node dials each seed URL until a member answers from it and reaches
// that member at the dialled URL from then on.
package gossip

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"dramtherm/internal/obs"
)

// Path is the HTTP exchange endpoint served by internal/httpapi: POST
// a Message, get the callee's post-merge Message back.
const Path = "/v1/gossip"

// MaxMembers bounds the member count of one decoded Message — far above
// any sensible cluster, low enough to reject garbage early.
const MaxMembers = 4096

// State is a member's health in the table. The zero value is Alive.
type State uint8

const (
	// Alive members are ring candidates.
	Alive State = iota
	// Suspect members are still ring candidates, but their detector
	// timed out somewhere: unless they refute (by bumping their
	// incarnation) they turn Dead after the suspicion timeout.
	Suspect
	// Dead members are out of the ring and quarantined: the death rumor
	// keeps circulating so stale alive rumors at the same incarnation
	// cannot resurrect them, until the quarantine TTL forgets them.
	Dead
)

var stateNames = [...]string{"alive", "suspect", "dead"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// MarshalJSON encodes the state by name.
func (s State) MarshalJSON() ([]byte, error) {
	if int(s) >= len(stateNames) {
		return nil, fmt.Errorf("gossip: unknown state %d", uint8(s))
	}
	return json.Marshal(s.String())
}

// UnmarshalJSON rejects unknown states, so a malformed exchange fails
// decoding as a whole instead of smuggling garbage into the table.
func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range stateNames {
		if n == name {
			*s = State(i)
			return nil
		}
	}
	return fmt.Errorf("gossip: unknown state %q", name)
}

// Member is one row of the membership table.
type Member struct {
	// ID identifies the node across the cluster; it must be unique and
	// stable (dramthermd derives it from the advertised URL).
	ID string `json:"id"`
	// URL is the node's advertised base URL; empty for observers (a
	// coordinator), which gossip but must never enter a ring.
	URL string `json:"url,omitempty"`
	// Incarnation is the member's self-asserted version: only the
	// member itself bumps it, to refute a suspicion or death rumor.
	Incarnation uint64 `json:"incarnation"`
	// State is the rumored health.
	State State `json:"state"`
}

// Message is the POST /v1/gossip body and reply: the sender's whole
// membership table (the sender itself included).
type Message struct {
	// From is the sending member's id, for logs.
	From string `json:"from"`
	// Members is the sender's table snapshot.
	Members []Member `json:"members"`
}

// entry is a Member plus the local wall-clock times of its last state
// transition (suspect timeout, dead quarantine) and of the last sign of
// life seen here (zero until the first), which ages observers.
type entry struct {
	m     Member
	since time.Time
	heard time.Time
}

// Table is one node's versioned membership view. It is safe for
// concurrent use; the Node gossips it, and local failure detectors
// (dispatch-failure ejections, failed exchanges) feed it via Suspect.
type Table struct {
	mu           sync.Mutex
	self         string
	selfURL      string
	selfInc      uint64
	entries      map[string]*entry
	version      uint64 // bumped on every visible change
	now          func() time.Time
	suspectAfter time.Duration
	quarantine   time.Duration

	transitions *obs.CounterVec // {to}; nil (no-op) without Config.Metrics
}

// NewTable builds a table containing only self, alive at incarnation 0.
// suspectAfter bounds how long a Suspect member may stay unrefuted
// before Tick declares it Dead; quarantine is how long a Dead member is
// remembered before Tick forgets it. now overrides the clock (nil means
// time.Now).
func NewTable(self Member, suspectAfter, quarantine time.Duration, now func() time.Time) *Table {
	if now == nil {
		now = time.Now
	}
	t := &Table{
		self:         self.ID,
		selfURL:      self.URL,
		selfInc:      self.Incarnation,
		entries:      make(map[string]*entry),
		now:          now,
		suspectAfter: suspectAfter,
		quarantine:   quarantine,
	}
	t.entries[self.ID] = &entry{m: Member{ID: self.ID, URL: self.URL, Incarnation: self.Incarnation}, since: now()}
	return t
}

// Version counts visible table changes; pollers use it to skip
// no-op notifications.
func (t *Table) Version() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.version
}

// Snapshot returns every member sorted by id, self included.
func (t *Table) Snapshot() []Member {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked()
}

// versionedSnapshot is Snapshot plus the table version it reflects,
// read under one lock so the pair is consistent.
func (t *Table) versionedSnapshot() (uint64, []Member) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.version, t.snapshotLocked()
}

func (t *Table) snapshotLocked() []Member {
	out := make([]Member, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, e.m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Merge folds a remote table snapshot into this one, returning whether
// anything visible changed. Precedence is SWIM's: a higher incarnation
// always wins; at equal incarnations the more severe state wins; ties
// are ignored. A rumor about self that is not "alive" at our current
// (or a later) incarnation is refuted: self bumps its incarnation past
// the rumor's and re-asserts alive. Members with an empty id are
// dropped — a malformed exchange can never grow an undialable row.
func (t *Table) Merge(ms []Member) (changed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	for _, m := range ms {
		if m.ID == "" {
			continue
		}
		if m.ID == t.self {
			if m.State != Alive && m.Incarnation >= t.selfInc {
				t.selfInc = m.Incarnation + 1
				t.refuteLocked(now)
				t.transitions.WithLabelValues("refuted").Inc()
				changed = true
			}
			continue
		}
		e, ok := t.entries[m.ID]
		switch {
		case !ok:
			if m.State == Dead {
				// Never adopt a dead rumor about a member we've already
				// forgotten (or never knew): it would restart the
				// quarantine clock and the corpse would ping-pong
				// between tables forever instead of ageing out.
				continue
			}
			t.entries[m.ID] = &entry{m: m, since: now}
			t.transitions.WithLabelValues("joined").Inc()
			changed = true
		case m.Incarnation > e.m.Incarnation,
			m.Incarnation == e.m.Incarnation && m.State > e.m.State:
			if m.State != e.m.State {
				e.since = now
				t.transitions.WithLabelValues(m.State.String()).Inc()
			}
			if m.Incarnation > e.m.Incarnation && !e.heard.IsZero() {
				e.heard = now // only the member bumps it: a sign of life
			}
			e.m = m
			changed = true
		case m.URL != "" && e.m.URL == "":
			// Same rumor, better address: adopt the URL alone.
			e.m.URL = m.URL
			changed = true
		}
	}
	if changed {
		t.version++
	}
	return changed
}

// refuteLocked rewrites self's row alive at the (already bumped)
// incarnation, so subsequent exchanges spread the refutation.
func (t *Table) refuteLocked(now time.Time) {
	e := t.entries[t.self]
	e.m = Member{ID: t.self, URL: t.selfURL, Incarnation: t.selfInc}
	e.since = now
}

// Suspect records a local detector's verdict: the member timed out. An
// Alive member turns Suspect at its current incarnation; Suspect and
// Dead members are left as they are. Suspecting self refutes instead
// (self knows it is alive better than any detector).
func (t *Table) Suspect(id string) (changed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == t.self {
		return false
	}
	e, ok := t.entries[id]
	if !ok || e.m.State != Alive {
		return false
	}
	e.m.State = Suspect
	e.since = t.now()
	t.transitions.WithLabelValues("suspect").Inc()
	t.version++
	return true
}

// Alive records direct positive contact with a member (an exchange
// answered, or one it initiated): a Suspect member returns to Alive at
// the same incarnation. Dead members are not resurrected — only the
// member's own incarnation bump (via Merge) can do that, so a stale
// detector cannot fight the quarantine.
func (t *Table) Alive(id string) (changed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[id]
	if !ok {
		return false
	}
	e.heard = t.now()
	if e.m.State != Suspect {
		return false
	}
	e.m.State = Alive
	e.since = e.heard
	t.transitions.WithLabelValues("alive").Inc()
	t.version++
	return true
}

// Tick advances time-driven transitions: an Alive observer silent here
// for suspectAfter turns Suspect (nobody dials it, so no failed exchange
// can), Suspect members unrefuted as long turn Dead, and Dead members
// are forgotten after the quarantine TTL. It returns whether anything
// visible changed; the Node calls it once per gossip round.
func (t *Table) Tick() (changed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	for id, e := range t.entries {
		if id == t.self {
			continue
		}
		switch e.m.State {
		case Alive:
			if e.m.URL == "" && !e.heard.IsZero() && t.suspectAfter >= 0 && now.Sub(e.heard) >= t.suspectAfter {
				e.m.State = Suspect
				e.since = now
				t.transitions.WithLabelValues("suspect").Inc()
				changed = true
			}
		case Suspect:
			if t.suspectAfter >= 0 && now.Sub(e.since) >= t.suspectAfter {
				e.m.State = Dead
				e.since = now
				t.transitions.WithLabelValues("dead").Inc()
				changed = true
			}
		case Dead:
			if t.quarantine >= 0 && now.Sub(e.since) >= t.quarantine {
				delete(t.entries, id)
				t.transitions.WithLabelValues("forgotten").Inc()
				changed = true
			}
		}
	}
	if changed {
		t.version++
	}
	return changed
}
