package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"dramtherm/internal/obs"
	"dramtherm/internal/sim"
	"dramtherm/internal/sweep"
)

// BatchPath is the batched execution endpoint: POST a BatchRequest, read
// per-spec outcomes back as a stream of NDJSON BatchLines.
const BatchPath = "/v1/exec/batch"

// BatchRequest is the POST /v1/exec/batch body: one peer's whole shard
// of a sweep.
type BatchRequest struct {
	Specs []sweep.Spec `json:"specs"`
}

// BatchLine is one NDJSON line of a batch response, emitted as each spec
// of the shard completes. Exactly one of Result and Error is set: an
// Error line is terminal for that spec (retrying elsewhere would fail
// identically), while peer-level failures truncate the stream instead so
// the coordinator fails the unacknowledged remainder over.
type BatchLine struct {
	// Index is the spec's position in the BatchRequest.
	Index int `json:"index"`
	// Key is the serving node's canonical cache key for the spec. The
	// coordinator checks it against its own key for the spec.
	Key string `json:"key,omitempty"`
	// Outcome is how the serving node obtained the result: "built",
	// "hit" or "joined".
	Outcome string             `json:"outcome,omitempty"`
	Result  *sim.MEMSpotResult `json:"result,omitempty"`
	Error   string             `json:"error,omitempty"`
}

// Shard is one ring member's slice of a planned batch.
type Shard struct {
	// Peer is the owning member's id, or "" for specs no live peer owns
	// (the ring is empty): those execute locally.
	Peer string
	// Indexes are positions in the planned spec list, in input order.
	Indexes []int
}

// PlanShards groups specs by the ring member that currently owns their
// key — the dispatch plan for a batched sweep: one Shard, one request.
// Shards appear in first-ownership order; specs with no live owner
// collect under the "" shard. The plan is a snapshot: membership changes
// after planning are handled by dispatch-time failover, not re-planning.
func (b *Backend) PlanShards(specs []sweep.Spec) []Shard {
	b.readmitExpired()
	b.mu.RLock()
	ring, ringPeers := b.ring, b.ringPeers
	b.mu.RUnlock()
	byPeer := make(map[string]int)
	var out []Shard
	for i, sp := range specs {
		owner := ""
		if c := ring.candidates(string(b.cfg.Key(sp))); len(c) > 0 {
			owner = ringPeers[c[0]].id
		}
		j, ok := byPeer[owner]
		if !ok {
			j = len(out)
			byPeer[owner] = j
			out = append(out, Shard{Peer: owner})
		}
		out[j].Indexes = append(out[j].Indexes, i)
	}
	return out
}

// RunSpecs implements sweep.BatchBackend: it plans the specs into one
// shard per ring owner, sends each peer its entire shard in a single
// request, and delivers per-spec outcomes as the NDJSON response streams
// back. When a peer fails or dies mid-stream the specs it had not yet
// acknowledged are re-planned onto the surviving ring; when no peer is
// left they are delivered with sweep.ErrRunLocal so the engine executes
// them on its own pool.
func (b *Backend) RunSpecs(ctx context.Context, specs []sweep.Spec, deliver func(i int, res sim.MEMSpotResult, info sweep.RunInfo, err error)) {
	// Failover can race a late line from a dying stream; guard delivery
	// so each spec is reported exactly once.
	var mu sync.Mutex
	acked := make([]bool, len(specs))
	once := func(i int, res sim.MEMSpotResult, info sweep.RunInfo, err error) {
		mu.Lock()
		dup := acked[i]
		acked[i] = true
		mu.Unlock()
		if !dup {
			deliver(i, res, info, err)
		}
	}
	all := make([]int, len(specs))
	for i := range all {
		all[i] = i
	}
	// Each failover round ejects at least one peer. Membership can grow
	// mid-sweep (gossip joins), so budget generously: a round per member
	// at dispatch time plus slack, after which only local execution is
	// left.
	b.mu.RLock()
	budget := len(b.peers) + 2
	b.mu.RUnlock()
	b.runBatch(ctx, specs, all, once, budget)
}

// runBatch plans idxs onto the current ring and dispatches one request
// per shard, recursing on the unacknowledged remainder of failed shards
// with a decremented budget. A zero budget (or an empty ring) delivers
// sweep.ErrRunLocal.
func (b *Backend) runBatch(ctx context.Context, specs []sweep.Spec, idxs []int, deliver func(int, sim.MEMSpotResult, sweep.RunInfo, error), budget int) {
	if ctx.Err() != nil {
		return // the sweep is over; nobody is waiting on deliveries
	}
	sub := make([]sweep.Spec, len(idxs))
	for j, i := range idxs {
		sub[j] = specs[i]
	}
	var wg sync.WaitGroup
	for _, sh := range b.PlanShards(sub) {
		mapped := make([]int, len(sh.Indexes))
		for j, k := range sh.Indexes {
			mapped[j] = idxs[k]
		}
		if sh.Peer == "" || budget <= 0 {
			for _, i := range mapped {
				deliver(i, sim.MEMSpotResult{}, sweep.RunInfo{}, sweep.ErrRunLocal)
			}
			continue
		}
		p := b.peerByID(sh.Peer)
		if p == nil {
			// The owner left the membership between planning and dispatch:
			// re-plan its shard on the current ring.
			b.mReplan.Inc()
			wg.Add(1)
			go func(mapped []int) {
				defer wg.Done()
				b.runBatch(ctx, specs, mapped, deliver, budget-1)
			}(mapped)
			continue
		}
		wg.Add(1)
		go func(p *peer, mapped []int) {
			defer wg.Done()
			if unacked := b.dispatchBatch(ctx, p, specs, mapped, deliver); len(unacked) > 0 {
				b.mReplan.Inc()
				b.runBatch(ctx, specs, unacked, deliver, budget-1)
			}
		}(p, mapped)
	}
	wg.Wait()
}

func (b *Backend) peerByID(id string) *peer {
	b.mu.RLock()
	defer b.mu.RUnlock()
	for _, p := range b.peers {
		if p.id == id {
			return p
		}
	}
	return nil // the member left between planning and dispatch
}

// dispatchBatch sends p its shard and delivers outcomes as the response
// streams back. It returns the indexes the peer never acknowledged when
// the peer failed (submit error, 5xx, stream truncation or protocol
// violation) — the caller's cue to fail them over — and nil when every
// spec was delivered or the caller's ctx died. A shard over the peer's
// batch limit (413) is split in half and each half re-sent to the same
// peer: the peer is healthy, so nothing is ejected and no failover
// budget is spent.
func (b *Backend) dispatchBatch(ctx context.Context, p *peer, specs []sweep.Spec, idxs []int, deliver func(int, sim.MEMSpotResult, sweep.RunInfo, error)) []int {
	unacked, tooLarge := b.postBatch(ctx, p, specs, idxs, deliver)
	if !tooLarge {
		return unacked
	}
	mid := len(idxs) / 2
	var rest []int
	done := make(chan struct{})
	go func() {
		defer close(done)
		rest = b.dispatchBatch(ctx, p, specs, idxs[mid:], deliver)
	}()
	unacked = b.dispatchBatch(ctx, p, specs, idxs[:mid], deliver)
	<-done
	return append(unacked, rest...)
}

// postBatch is one POST /v1/exec/batch of idxs to p, bounded by the
// peer's request pool. It returns unacked as dispatchBatch does, or
// tooLarge when the peer rejected a multi-spec shard as over its batch
// limit; the pool slot is released before the caller splits.
func (b *Backend) postBatch(ctx context.Context, p *peer, specs []sweep.Spec, idxs []int, deliver func(int, sim.MEMSpotResult, sweep.RunInfo, error)) (unacked []int, tooLarge bool) {
	var zero sim.MEMSpotResult
	select {
	case p.sem <- struct{}{}:
		defer func() { <-p.sem }()
	case <-ctx.Done():
		return nil, false
	}
	p.requests.Add(1)
	b.mDispatch.WithLabelValues(p.id, "batch").Inc()
	breq := BatchRequest{Specs: make([]sweep.Spec, len(idxs))}
	for j, i := range idxs {
		breq.Specs[j] = specs[i]
	}
	var req *http.Request
	body, err := json.Marshal(breq)
	if err == nil {
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, p.url+BatchPath, bytes.NewReader(body))
	}
	if err != nil {
		for _, i := range idxs {
			deliver(i, zero, sweep.RunInfo{}, err)
		}
		return nil, false
	}
	req.Header.Set("Content-Type", "application/json")
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	resp, err := b.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, false // the caller gave up; not the peer's fault
		}
		b.eject(p, err)
		return idxs, false
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		return b.decodeBatchStream(ctx, p, resp.Body, specs, idxs, deliver), false
	case resp.StatusCode == http.StatusRequestEntityTooLarge && len(idxs) > 1:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
		return nil, true
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		// The peer is healthy and rejected the batch itself: terminal for
		// every spec in it (the coordinator validated them, so this is a
		// version-skew or protocol bug worth surfacing, not retrying).
		// A single spec over the batch limit ends here too.
		err := fmt.Errorf("remote: peer %s rejected batch: %s", p.id, errorBody(resp))
		for _, i := range idxs {
			deliver(i, zero, sweep.RunInfo{}, err)
		}
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
		b.eject(p, fmt.Errorf("batch status %s", resp.Status))
		return idxs, false
	}
	return nil, false
}

// decodeBatchStream consumes one batch response, delivering each line's
// outcome. The remainder fails over when the stream dies or misbehaves
// before acknowledging every spec. A line must echo the spec's key as
// this node computes it: a peer that keys it otherwise (another
// ConfigDigest, or an older binary that dropped a spec field it does
// not know) ran some other run, whose result must not be cached here.
func (b *Backend) decodeBatchStream(ctx context.Context, p *peer, body io.Reader, specs []sweep.Spec, idxs []int, deliver func(int, sim.MEMSpotResult, sweep.RunInfo, error)) (unacked []int) {
	var zero sim.MEMSpotResult
	acked := make([]bool, len(idxs))
	remaining := func() []int {
		var out []int
		for j, ok := range acked {
			if !ok {
				out = append(out, idxs[j])
			}
		}
		return out
	}
	dec := json.NewDecoder(&countingReader{r: body, c: b.mStreamBytes})
	for n := 0; n < len(idxs); n++ {
		var line BatchLine
		if err := dec.Decode(&line); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			// io.EOF here is a truncated stream: the peer drained or died
			// with specs outstanding.
			b.eject(p, fmt.Errorf("batch stream: %w", err))
			return remaining()
		}
		b.mStreamLines.Inc()
		if line.Index < 0 || line.Index >= len(idxs) || acked[line.Index] {
			b.eject(p, fmt.Errorf("batch protocol: unexpected line index %d", line.Index))
			return remaining()
		}
		if want := string(b.cfg.Key(specs[idxs[line.Index]])); line.Key != want {
			b.eject(p, fmt.Errorf("batch protocol: line %d keys %q, want %q", line.Index, line.Key, want))
			return remaining()
		}
		acked[line.Index] = true
		switch {
		case line.Error != "":
			deliver(idxs[line.Index], zero, sweep.RunInfo{}, fmt.Errorf("remote: run failed on peer %s: %s", p.id, line.Error))
		case line.Result != nil:
			deliver(idxs[line.Index], *line.Result, sweep.RunInfo{Outcome: parseOutcome(line.Outcome), Peer: p.id}, nil)
		default:
			b.eject(p, fmt.Errorf("batch protocol: line %d has neither result nor error", line.Index))
			return remaining()
		}
	}
	return nil
}
