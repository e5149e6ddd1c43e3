package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"dramtherm/internal/sim"
	"dramtherm/internal/sweep"
)

// HandoffPath is the cache-replication endpoint, served by
// internal/httpapi: POST a stream of NDJSON HandoffLines, get a
// HandoffResponse back. Both RF=2 replication (a just-built result
// pushed to its key's ring successor) and membership handoff (a moved
// shard's cached results streamed to their new owner) ride this wire.
const HandoffPath = "/v1/handoff"

// Handoff reasons, carried per line for the receiver's accounting.
const (
	// ReasonReplica marks a freshly built result replicated to the key's
	// ring successor (RF=2).
	ReasonReplica = "replica"
	// ReasonHandoff marks a cached result streamed to a ring member that
	// became responsible for its key after a membership change.
	ReasonHandoff = "handoff"
)

// HandoffLine is one NDJSON line of a handoff request: a completed
// result under its canonical cache key. The receiver imports it
// idempotently — present keys and digest mismatches are skipped, never
// errors.
type HandoffLine struct {
	Key    string             `json:"key"`
	Result *sim.MEMSpotResult `json:"result"`
	Reason string             `json:"reason,omitempty"`
}

// HandoffResponse is the POST /v1/handoff reply.
type HandoffResponse struct {
	// Accepted counts lines imported into the receiver's cache.
	Accepted int `json:"accepted"`
	// Skipped counts lines the receiver already had (or rejected as
	// belonging to a different config digest).
	Skipped int `json:"skipped"`
}

// handoffChunkLines bounds one handoff POST, so a large handed-off shard
// streams as several requests instead of one unbounded body.
const handoffChunkLines = 128

// replQueueDepth bounds the replication queue. Replication is
// best-effort by design — a full queue drops (and counts) the job
// rather than stalling the sweep hot path.
const replQueueDepth = 1024

// replJob is one unit of background replication work: lines for a fixed
// destination (handoff), or a single just-built result whose successor
// is resolved at send time against the then-current ring (replica).
type replJob struct {
	destID string // fixed destination; "" resolves the successor of lines[0].Key
	served string // peer that produced the result — never its own replica
	lines  []HandoffLine
}

// ReplicationStatus snapshots the replication layer for healthz.
type ReplicationStatus struct {
	Enabled bool `json:"enabled"`
	// Sent counts results delivered to a replica or handoff destination.
	Sent int64 `json:"sent"`
	// Dropped counts results not replicated: queue overflow, no eligible
	// destination, or delivery failure. Replication is best-effort; drops
	// cost warmth, not correctness.
	Dropped int64 `json:"dropped"`
	// Pending counts queued-but-undelivered results.
	Pending int64 `json:"pending"`
	// HandoffKeys counts results streamed by membership-change handoff.
	HandoffKeys int64 `json:"handoff_keys"`
	// HandoffRounds counts membership changes that planned a handoff.
	HandoffRounds int64 `json:"handoff_rounds"`
	// Promotions counts keys whose dead primary's replica holder became
	// the new ring owner — served warm with no data movement at all.
	Promotions int64 `json:"promotions"`
}

// ReplicationStatus reports the backend's replication counters.
func (b *Backend) ReplicationStatus() ReplicationStatus {
	return ReplicationStatus{
		Enabled:       b.cfg.Replication,
		Sent:          b.replSent.Load(),
		Dropped:       b.replDropped.Load(),
		Pending:       b.replPending.Load(),
		HandoffKeys:   b.handoffKeys.Load(),
		HandoffRounds: b.handoffRounds.Load(),
		Promotions:    b.promotions.Load(),
	}
}

// maybeReplicate queues a just-completed result for asynchronous RF=2
// replication to its key's ring successor. Cache hits are skipped — the
// serving peer's copy was replicated when it was first built.
func (b *Backend) maybeReplicate(spec sweep.Spec, res sim.MEMSpotResult, info sweep.RunInfo) {
	if !b.cfg.Replication || info.Outcome == sweep.Hit {
		return
	}
	r := res
	b.enqueueRepl(replJob{
		served: info.Peer,
		lines:  []HandoffLine{{Key: string(b.cfg.Key(spec)), Result: &r, Reason: ReasonReplica}},
	})
}

// enqueueRepl hands a job to the replication worker without ever
// blocking the caller; overflow drops and counts.
func (b *Backend) enqueueRepl(job replJob) {
	n := int64(len(job.lines))
	b.replPending.Add(n)
	select {
	case b.replQ <- job:
	default:
		b.replPending.Add(-n)
		b.dropRepl(n, "queue full")
	}
}

func (b *Backend) dropRepl(n int64, why string) {
	b.replDropped.Add(n)
	b.mReplDropped.Add(float64(n))
	b.log.Warn("remote: replication dropped", "results", n, "reason", why)
}

// replicateLoop is the single background worker draining the
// replication queue. One slow destination back-pressures the queue, not
// the dispatch hot path.
func (b *Backend) replicateLoop() {
	defer b.wg.Done()
	for {
		select {
		case job := <-b.replQ:
			b.runReplJob(job)
		case <-b.stop:
			return
		}
	}
}

// runReplJob resolves the job's destination against the current ring
// and streams its lines there.
func (b *Backend) runReplJob(job replJob) {
	defer b.replPending.Add(-int64(len(job.lines)))
	destID := job.destID
	if destID == "" {
		destID = b.replicaFor(job.lines[0].Key, job.served)
	}
	if destID == "" {
		b.dropRepl(int64(len(job.lines)), "no eligible successor")
		return
	}
	p := b.peerByID(destID)
	if p == nil {
		b.dropRepl(int64(len(job.lines)), "destination left membership")
		return
	}
	for start := 0; start < len(job.lines); start += handoffChunkLines {
		end := min(start+handoffChunkLines, len(job.lines))
		chunk := job.lines[start:end]
		if err := b.sendHandoff(p, chunk); err != nil {
			b.dropRepl(int64(len(job.lines)-start), "delivery failed")
			b.log.Warn("remote: handoff delivery failed", "peer", destID, "err", err.Error())
			return
		}
		b.replSent.Add(int64(len(chunk)))
		b.mReplSent.WithLabelValues(destID).Add(float64(len(chunk)))
		for _, ln := range chunk {
			if ln.Reason == ReasonHandoff {
				b.handoffKeys.Add(1)
				b.mHandoffKeys.WithLabelValues(destID).Inc()
			}
		}
	}
}

// replicaFor resolves the RF=2 replica destination for key: the first
// ring candidate that is not the peer that produced the result. When the
// producer is the key's owner this is exactly the ring successor; when
// the producer was a failover candidate it is the owner — either way the
// result lands on the member that will serve the key if the producer
// dies. Returns "" when no distinct live candidate exists (single-member
// ring).
func (b *Backend) replicaFor(key, served string) string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, idx := range b.ring.candidates(key) {
		if id := b.ringPeers[idx].id; id != served {
			return id
		}
	}
	return ""
}

// sendHandoff streams lines to p as one POST /v1/handoff request.
func (b *Backend) sendHandoff(p *peer, lines []HandoffLine) error {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, ln := range lines {
		if err := enc.Encode(ln); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.url+HandoffPath, &body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	b.mDispatch.WithLabelValues(p.id, "handoff").Inc()
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
		return fmt.Errorf("handoff status %s", resp.Status)
	}
	var hr HandoffResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		return fmt.Errorf("decoding handoff response: %w", err)
	}
	return nil
}

// respSet is the RF=2 responsibility set for key on one ring snapshot:
// the owner then the successor (fewer when the ring is smaller).
func respSet(r *ring, peers []*peer, key string) []string {
	c := r.candidates(key)
	if len(c) > 2 {
		c = c[:2]
	}
	out := make([]string, len(c))
	for i, idx := range c {
		out[i] = peers[idx].id
	}
	return out
}

// handoffPlan is the outcome of diffing one membership change against
// the cached key set: which results to stream where, and how many keys
// were promoted in place.
type handoffPlan struct {
	// moves maps destination peer id → results it became responsible for.
	moves map[string][]HandoffLine
	// promotions counts keys whose dead primary's successor became the
	// new owner — already replicated there, so no movement is needed.
	promotions int
}

// planHandoff diffs each cached key's RF=2 responsibility set between
// the old and new rings: any member newly responsible for a key gets its
// cached result streamed over before traffic lands there. entries
// iterates the coordinator's cached results (Config.Entries); left names
// the members removed by the change.
func planHandoff(oldRing *ring, oldPeers []*peer, newRing *ring, newPeers []*peer,
	left map[string]bool, entries func(fn func(sweep.Key, sim.MEMSpotResult) bool)) handoffPlan {
	plan := handoffPlan{moves: make(map[string][]HandoffLine)}
	entries(func(k sweep.Key, res sim.MEMSpotResult) bool {
		key := string(k)
		oldSet := respSet(oldRing, oldPeers, key)
		newSet := respSet(newRing, newPeers, key)
		for _, dest := range newSet {
			if !contains(oldSet, dest) {
				r := res
				plan.moves[dest] = append(plan.moves[dest], HandoffLine{Key: key, Result: &r, Reason: ReasonHandoff})
			}
		}
		if len(oldSet) > 1 && left[oldSet[0]] && len(newSet) > 0 && newSet[0] == oldSet[1] {
			plan.promotions++
		}
		return true
	})
	return plan
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// handoffOnChange plans and queues the cache handoff for one membership
// change, called asynchronously from SetMembers with the pre- and
// post-change ring snapshots.
func (b *Backend) handoffOnChange(oldRing *ring, oldPeers []*peer, left []string) {
	b.mu.RLock()
	newRing, newPeers := b.ring, b.ringPeers
	b.mu.RUnlock()
	leftSet := make(map[string]bool, len(left))
	for _, id := range left {
		leftSet[id] = true
	}
	plan := planHandoff(oldRing, oldPeers, newRing, newPeers, leftSet, b.cfg.Entries)
	if len(plan.moves) == 0 && plan.promotions == 0 {
		return
	}
	b.handoffRounds.Add(1)
	b.mHandoffRounds.Inc()
	if plan.promotions > 0 {
		b.promotions.Add(int64(plan.promotions))
		b.mPromotions.Add(float64(plan.promotions))
	}
	total := 0
	for dest, lines := range plan.moves {
		total += len(lines)
		b.enqueueRepl(replJob{destID: dest, lines: lines})
	}
	b.log.Info("remote: cache handoff planned",
		"destinations", len(plan.moves), "results", total, "promotions", plan.promotions)
}
