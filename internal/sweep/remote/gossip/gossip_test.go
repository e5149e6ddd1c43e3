package gossip

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock shared by every table of a test.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1700000000, 0)} }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func member(id string, inc uint64, st State) Member {
	return Member{ID: id, URL: "http://" + id, Incarnation: inc, State: st}
}

func stateOf(t *testing.T, tb *Table, id string) (Member, bool) {
	t.Helper()
	for _, m := range tb.Snapshot() {
		if m.ID == id {
			return m, true
		}
	}
	return Member{}, false
}

func TestMergePrecedence(t *testing.T) {
	clk := newFakeClock()
	tb := NewTable(Member{ID: "self"}, time.Minute, time.Hour, clk.now)

	// Unknown members are adopted.
	if !tb.Merge([]Member{member("a", 0, Alive)}) {
		t.Fatal("adopting an unknown member reported no change")
	}
	// Same incarnation, more severe state wins.
	if !tb.Merge([]Member{member("a", 0, Suspect)}) {
		t.Fatal("suspect at equal incarnation must override alive")
	}
	// Same incarnation, less severe state loses.
	if tb.Merge([]Member{member("a", 0, Alive)}) {
		t.Fatal("alive at equal incarnation must not override suspect")
	}
	// Higher incarnation always wins — that is the refutation channel.
	if !tb.Merge([]Member{member("a", 1, Alive)}) {
		t.Fatal("alive at a higher incarnation must override suspect")
	}
	if m, _ := stateOf(t, tb, "a"); m.State != Alive || m.Incarnation != 1 {
		t.Fatalf("member a = %+v, want alive at incarnation 1", m)
	}
	// Dead at the same incarnation beats everything...
	tb.Merge([]Member{member("a", 1, Dead)})
	if tb.Merge([]Member{member("a", 1, Suspect)}) {
		t.Fatal("suspect must not override dead at the same incarnation")
	}
	// ...but a higher incarnation resurrects (the member refuted).
	if !tb.Merge([]Member{member("a", 2, Alive)}) {
		t.Fatal("alive at a higher incarnation must resurrect the dead")
	}
	// Empty ids never enter the table.
	tb.Merge([]Member{{URL: "http://nowhere", Incarnation: 9}})
	if ms := tb.Snapshot(); len(ms) != 2 { // self + a
		t.Fatalf("table has %d members %v, want 2", len(ms), ms)
	}
}

// TestMergeIgnoresUnknownDead: a death rumor about a member this table
// has already forgotten (or never knew) must not be adopted — it would
// restart the quarantine clock and corpses would ping-pong between
// tables forever instead of ageing out cluster-wide.
func TestMergeIgnoresUnknownDead(t *testing.T) {
	clk := newFakeClock()
	tb := NewTable(Member{ID: "self"}, time.Minute, time.Hour, clk.now)
	if tb.Merge([]Member{member("ghost", 4, Dead)}) {
		t.Fatal("a dead rumor about an unknown member was adopted")
	}
	if _, ok := stateOf(t, tb, "ghost"); ok {
		t.Fatal("forgotten corpse re-entered the table")
	}
	// The same rumor about a member we do know still lands.
	tb.Merge([]Member{member("a", 0, Alive)})
	if !tb.Merge([]Member{member("a", 0, Dead)}) {
		t.Fatal("a dead rumor about a known member must be adopted")
	}
}

// TestManualRoundTimeoutsStayPositive: Interval < 0 disables only the
// background loop; manually-driven Rounds must still confirm deaths
// and forget the quarantined — the timeout defaults cannot go negative.
func TestManualRoundTimeoutsStayPositive(t *testing.T) {
	clk := newFakeClock()
	n, err := NewNode(Config{
		Self:     Member{ID: "self", URL: "mesh://self"},
		Interval: -1,
		Now:      clk.now,
		Transport: func(ctx context.Context, url string, msg Message) (Message, error) {
			return Message{}, fmt.Errorf("unreachable")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.table.Merge([]Member{member("a", 0, Alive)})
	n.Suspect("a")
	clk.advance(6 * time.Second) // past the 5×1s fallback default
	n.Round(context.Background())
	if m, _ := stateOf(t, n.table, "a"); m.State != Dead {
		t.Fatalf("unrefuted suspect = %+v after the timeout, want dead", m)
	}
	clk.advance(31 * time.Second) // past the 30×1s quarantine fallback
	n.Round(context.Background())
	if _, ok := stateOf(t, n.table, "a"); ok {
		t.Fatal("quarantined corpse never forgotten under manual rounds")
	}
}

func TestMergeAdoptsURLForUnaddressedMember(t *testing.T) {
	clk := newFakeClock()
	tb := NewTable(Member{ID: "self"}, time.Minute, time.Hour, clk.now)
	tb.Merge([]Member{{ID: "a", Incarnation: 0}})
	if !tb.Merge([]Member{member("a", 0, Alive)}) {
		t.Fatal("learning a URL for an unaddressed member reported no change")
	}
	if m, _ := stateOf(t, tb, "a"); m.URL != "http://a" {
		t.Fatalf("member a URL = %q, want http://a", m.URL)
	}
}

func TestSelfRefutesRumors(t *testing.T) {
	clk := newFakeClock()
	tb := NewTable(Member{ID: "self", URL: "http://self"}, time.Minute, time.Hour, clk.now)

	// A suspect rumor about self at our incarnation forces a bump.
	tb.Merge([]Member{member("self", 0, Suspect)})
	if m, _ := stateOf(t, tb, "self"); m.State != Alive || m.Incarnation != 1 {
		t.Fatalf("self = %+v, want alive at incarnation 1 after refuting", m)
	}
	// A dead rumor at a later incarnation than ours is outbid too.
	tb.Merge([]Member{member("self", 7, Dead)})
	if m, _ := stateOf(t, tb, "self"); m.State != Alive || m.Incarnation != 8 {
		t.Fatalf("self = %+v, want alive at incarnation 8", m)
	}
	// Stale rumors (below our incarnation) change nothing.
	if tb.Merge([]Member{member("self", 2, Dead)}) {
		t.Fatal("a stale rumor about self must be ignored")
	}
	// Suspecting self locally is a no-op: self knows better.
	if tb.Suspect("self") {
		t.Fatal("Suspect(self) must not change the table")
	}
}

func TestSuspectAliveAndTick(t *testing.T) {
	clk := newFakeClock()
	tb := NewTable(Member{ID: "self"}, time.Minute, time.Hour, clk.now)
	tb.Merge([]Member{member("a", 0, Alive), member("b", 0, Alive)})

	if !tb.Suspect("a") {
		t.Fatal("suspecting an alive member reported no change")
	}
	if tb.Suspect("a") {
		t.Fatal("re-suspecting a suspect member must be a no-op")
	}
	// Direct contact clears a local suspicion at the same incarnation.
	if !tb.Alive("a") {
		t.Fatal("Alive on a suspect member reported no change")
	}

	// An unrefuted suspicion turns dead after the timeout...
	tb.Suspect("a")
	clk.advance(30 * time.Second)
	if tb.Tick() {
		t.Fatal("Tick before the suspicion timeout must change nothing")
	}
	clk.advance(31 * time.Second)
	if !tb.Tick() {
		t.Fatal("Tick past the suspicion timeout must confirm death")
	}
	if m, _ := stateOf(t, tb, "a"); m.State != Dead {
		t.Fatalf("member a = %+v, want dead", m)
	}
	// ...Alive cannot resurrect the dead (only an incarnation bump can)...
	if tb.Alive("a") {
		t.Fatal("Alive must not resurrect a dead member")
	}
	// ...and the quarantine eventually forgets it.
	clk.advance(time.Hour)
	if !tb.Tick() {
		t.Fatal("Tick past the quarantine TTL must forget the dead")
	}
	if _, ok := stateOf(t, tb, "a"); ok {
		t.Fatal("member a still in the table after quarantine expiry")
	}
	if _, ok := stateOf(t, tb, "b"); !ok {
		t.Fatal("member b vanished; quarantine must only remove the dead")
	}
}

// TestObserverAgesFromLastContact: an observer (no URL) is never
// dialled, so Tick suspects it once this node has not heard from it —
// by an exchange or a relayed incarnation bump — for suspectAfter. An
// observer known only by rumor is left to the nodes that hear it.
func TestObserverAgesFromLastContact(t *testing.T) {
	clk := newFakeClock()
	tb := NewTable(Member{ID: "self", URL: "http://self"}, time.Minute, time.Hour, clk.now)
	tb.Merge([]Member{{ID: "c"}, {ID: "rumor"}, member("w", 0, Alive)})
	tb.Alive("c") // c exchanged with us
	clk.advance(59 * time.Second)
	if tb.Tick() {
		t.Fatal("Tick before suspectAfter of silence must change nothing")
	}
	tb.Merge([]Member{{ID: "c", Incarnation: 1}}) // c's refutation, relayed
	clk.advance(59 * time.Second)
	if tb.Tick() {
		t.Fatal("a relayed incarnation bump must restart the silence clock")
	}
	clk.advance(time.Second)
	if !tb.Tick() {
		t.Fatal("Tick after suspectAfter of silence must suspect the observer")
	}
	for id, want := range map[string]State{"c": Suspect, "rumor": Alive, "w": Alive} {
		if m, _ := stateOf(t, tb, id); m.State != want {
			t.Fatalf("member %s = %+v, want %v", id, m, want)
		}
	}
	if !tb.Alive("c") {
		t.Fatal("an exchange from a suspect observer must clear the suspicion")
	}
}

func TestVersionCountsChanges(t *testing.T) {
	clk := newFakeClock()
	tb := NewTable(Member{ID: "self"}, time.Minute, time.Hour, clk.now)
	v0 := tb.Version()
	tb.Merge([]Member{member("a", 0, Alive)})
	if tb.Version() == v0 {
		t.Fatal("a merge that changed the table must bump the version")
	}
	v1 := tb.Version()
	tb.Merge([]Member{member("a", 0, Alive)}) // no-op
	if tb.Version() != v1 {
		t.Fatal("a no-op merge must not bump the version")
	}
}

func TestStateJSONRejectsUnknown(t *testing.T) {
	for _, s := range []State{Alive, Suspect, Dead} {
		b, err := s.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal %v: %v", s, err)
		}
		var back State
		if err := back.UnmarshalJSON(b); err != nil || back != s {
			t.Fatalf("round trip of %v: got %v, err %v", s, back, err)
		}
	}
	var s State
	for _, bad := range []string{`"zombie"`, `3`, `{}`} {
		if err := s.UnmarshalJSON([]byte(bad)); err == nil {
			t.Fatalf("unmarshal %s succeeded, want error", bad)
		}
	}
	if _, err := State(9).MarshalJSON(); err == nil {
		t.Fatal("marshal of an unknown state succeeded, want error")
	}
}

func TestNodeRequiresSelfID(t *testing.T) {
	if _, err := NewNode(Config{}); err == nil {
		t.Fatal("NewNode without Self.ID succeeded, want error")
	}
}

func TestPickTargetsSkipsSelfDeadAndUnaddressed(t *testing.T) {
	n, err := NewNode(Config{
		Self:     Member{ID: "self", URL: "http://self"},
		Interval: -1, // no background loop
		Fanout:   10,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.table.Merge([]Member{
		member("a", 0, Alive),
		member("b", 0, Suspect),
		member("dead", 0, Dead),
		{ID: "observer", Incarnation: 0}, // no URL
	})
	targets := n.pickTargets()
	want := map[string]bool{"a": true, "b": true}
	if len(targets) != len(want) {
		t.Fatalf("targets %v, want exactly a and b", targets)
	}
	for _, m := range targets {
		if !want[m.ID] {
			t.Fatalf("unexpected gossip target %q in %v", m.ID, targets)
		}
	}
}

func TestHandleExchangeMergesAndReplies(t *testing.T) {
	n, err := NewNode(Config{Self: Member{ID: "self", URL: "http://self"}, Interval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	reply := n.HandleExchange(Message{From: "a", Members: []Member{member("a", 0, Alive)}})
	if reply.From != "self" {
		t.Fatalf("reply.From = %q, want self", reply.From)
	}
	ids := fmt.Sprint(reply.Members)
	if len(reply.Members) != 2 {
		t.Fatalf("reply members %s, want self and a", ids)
	}
}
