package remote

import (
	"fmt"
	"io"

	"dramtherm/internal/obs"
)

// rebalanceProbes is a fixed probe-key set whose ownership is diffed
// across ring rebuilds: the moved fraction of these keys estimates the
// moved fraction of the whole key space (consistent hashing moves
// ~1/n of all keys per membership change, regardless of which keys).
var rebalanceProbes = func() []string {
	out := make([]string, 64)
	for i := range out {
		out[i] = fmt.Sprintf("rebalance-probe-%d", i)
	}
	return out
}()

// Instrument registers the backend's metric families on reg and arms
// its per-event counters: dispatches by peer and kind, peer state
// transitions, batch re-plan rounds (failover), batch stream
// traffic, and a sampled estimate of keys moved per ring rebuild. The
// peer gauge and per-peer failure counters read the same Status()
// snapshot healthz reports. Like the engine's Instrument, call it once,
// before the backend is shared; a nil reg is a no-op.
func (b *Backend) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	b.mDispatch = reg.CounterVec("dramtherm_remote_dispatch_total",
		"Requests dispatched to peers, by peer id and kind (batch).",
		"peer", "kind")
	b.mTransition = reg.CounterVec("dramtherm_remote_peer_state_transitions_total",
		"Peer ring-state transitions, by destination state: down (ejected), half_open (backoff-expiry retry).",
		"peer", "to")
	b.mReplan = reg.Counter("dramtherm_remote_replan_rounds_total",
		"Batch re-plan rounds: a shard's unacknowledged remainder re-planned onto the surviving ring.")
	b.mMoved = reg.Counter("dramtherm_remote_rebalance_moved_keys_total",
		"Probe keys whose ring owner changed across rebuilds — a sampled estimate of rebalance churn (out of 64 probes per rebuild).")
	b.mStreamBytes = reg.Counter("dramtherm_remote_batch_stream_bytes_total",
		"Bytes read from batch NDJSON response streams.")
	b.mStreamLines = reg.Counter("dramtherm_remote_batch_stream_lines_total",
		"NDJSON lines decoded from batch response streams.")
	reg.SampleFunc(obs.KindGauge, "dramtherm_remote_peers",
		"Ring membership by state, from the same snapshot healthz peers report.",
		[]string{"state"}, func() []obs.Sample {
			up, down := 0, 0
			for _, ps := range b.Status() {
				if ps.Up {
					up++
				} else {
					down++
				}
			}
			return []obs.Sample{
				{LabelValues: []string{"up"}, Value: float64(up)},
				{LabelValues: []string{"down"}, Value: float64(down)},
			}
		})
	reg.SampleFunc(obs.KindCounter, "dramtherm_remote_peer_failures_total",
		"Dispatch failures per current ring member.",
		[]string{"peer"}, func() []obs.Sample {
			st := b.Status()
			out := make([]obs.Sample, len(st))
			for i, ps := range st {
				out[i] = obs.Sample{LabelValues: []string{ps.ID}, Value: float64(ps.Failures)}
			}
			return out
		})
	// Baseline the probe-key owners so the first instrumented rebuild
	// counts moves against the current ring, not against nothing.
	b.mu.Lock()
	b.prevOwners = b.probeOwnersLocked()
	b.mu.Unlock()
}

// probeOwnersLocked resolves the current owner of every rebalance probe
// key. Callers hold b.mu.
func (b *Backend) probeOwnersLocked() []string {
	out := make([]string, len(rebalanceProbes))
	for i, k := range rebalanceProbes {
		if c := b.ring.candidates(k); len(c) > 0 {
			out[i] = b.ringPeers[c[0]].id
		}
	}
	return out
}

// countMovedLocked diffs probe-key ownership against the previous ring
// and feeds the rebalance counter. Callers hold b.mu.
func (b *Backend) countMovedLocked() {
	if b.mMoved == nil {
		return
	}
	next := b.probeOwnersLocked()
	if b.prevOwners != nil {
		moved := 0
		for i := range next {
			if next[i] != b.prevOwners[i] {
				moved++
			}
		}
		b.mMoved.Add(float64(moved))
	}
	b.prevOwners = next
}

// countingReader feeds every byte read from r into c. A nil counter
// costs one nil check per Read.
type countingReader struct {
	r io.Reader
	c *obs.Counter
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.c.Add(float64(n))
	return n, err
}
