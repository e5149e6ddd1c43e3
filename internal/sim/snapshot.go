// Snapshot/restore of a running MEMSpot at a DTM decision boundary. The
// prefix-sharing layer (internal/sweep/prefix) checkpoints the leader of
// a policy-sliced group here and resumes followers from the deepest
// checkpoint before their first divergent decision; correctness demands
// that a restored run continue bit-identically to one that never
// checkpointed, which the divergence differential suite in
// internal/simtest enforces.
//
// What is captured: simulated time and schedule cursors, the thermal
// state (model + ambient), the batch queue and per-core jobs, the live
// DTM action and overshoot flag, and the result accumulator. Snapshot
// first writes the residency cells back, so the captured maps are
// current. What is deliberately excluded: the hot-loop scratch state.
// Restore drops the resolved window (it marks the resolution inputs
// changed, so the next step re-resolves), the hottest AMB/DRAM
// temperatures taken after the last window (the next use takes them
// from the restored thermal state) and the residency cells. It keeps
// the run's design-point memo, whose records are pure functions of
// their points, and the power/gating/name buffers, which every use
// overwrites. The decay caches self-revalidate (see
// internal/thermal/snapshot.go).
//
// Runs with sensor noise enabled cannot be snapshotted: the sensor's
// math/rand state is not capturable, so a resumed run could not
// reproduce the noise sequence bit-for-bit.

package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"dramtherm/internal/dtm"
	"dramtherm/internal/thermal"
	"dramtherm/internal/workload"
)

// JobState is the restorable state of one core's batch entry. A zero
// Name marks an idle core (its job queue ran dry).
type JobState struct {
	Name      string
	Remaining float64
	Total     float64
}

// MEMSpotState is the restorable state of a MEMSpot between windows at a
// DTM decision boundary. All fields are exported so the state crosses
// gob (a prefix group record, as older builds persisted it) and fmt
// (canonical digest) unchanged.
type MEMSpotState struct {
	// WindowS pins the window length the snapshot was taken under;
	// Restore rejects a mismatch rather than resume on a different grid.
	WindowS float64

	Now     float64
	NextDTM float64
	NextRot float64
	NextRec float64
	Rot     int

	Steps     int64
	Decisions int

	Act dtm.Action
	Hot bool

	Queue []string   // pending profile names, in dispatch order
	Cores []JobState // one per core

	Thermal thermal.ModelState
	Ambient thermal.AmbientState

	Res MEMSpotResult
}

// Snapshot captures the run's state. It fails for sensor-noise runs
// (SensorSeed != 0), whose RNG state cannot be captured.
func (m *MEMSpot) Snapshot() (*MEMSpotState, error) {
	if m.sensor != nil {
		return nil, fmt.Errorf("sim: cannot snapshot a run with sensor noise (RNG state is not restorable)")
	}
	m.flushResidency()
	st := &MEMSpotState{
		WindowS:   m.cfg.WindowS,
		Now:       m.now,
		NextDTM:   m.nextDTM,
		NextRot:   m.nextRot,
		NextRec:   m.nextRec,
		Rot:       m.rot,
		Steps:     m.steps,
		Decisions: m.decisions,
		Act:       m.act,
		Hot:       m.hot,
		Thermal:   m.model.Snapshot(),
		Ambient:   m.amb.Snapshot(),
		Res:       cloneResult(m.res),
	}
	st.Queue = make([]string, len(m.queue))
	for i, p := range m.queue {
		st.Queue[i] = p.Name
	}
	st.Cores = make([]JobState, len(m.cores))
	for i, j := range m.cores {
		if j != nil {
			st.Cores[i] = JobState{Name: j.prof.Name, Remaining: j.remaining, Total: j.total}
		}
	}
	return st, nil
}

// Restore overwrites the run's state from a snapshot taken on a run with
// the same configuration. The policy is untouched: the caller is
// responsible for bringing it to the matching internal state (the
// prefix sharer replays the recorded decision inputs into a fresh
// policy before restoring). The state is not consumed — multiple runs
// may restore from the same snapshot.
func (m *MEMSpot) Restore(st *MEMSpotState) error {
	if m.sensor != nil {
		return fmt.Errorf("sim: cannot restore a run with sensor noise")
	}
	if st.WindowS != m.cfg.WindowS {
		return fmt.Errorf("sim: restore with window %g s onto a run with window %g s", st.WindowS, m.cfg.WindowS)
	}
	if len(st.Cores) != len(m.cores) {
		return fmt.Errorf("sim: restore with %d cores onto a run with %d", len(st.Cores), len(m.cores))
	}
	queue := make([]*workload.Profile, len(st.Queue))
	for i, name := range st.Queue {
		p, err := workload.ByName(name)
		if err != nil {
			return fmt.Errorf("sim: restore queue: %w", err)
		}
		queue[i] = p
	}
	cores := make([]*job, len(st.Cores))
	for i, js := range st.Cores {
		if js.Name == "" {
			continue
		}
		p, err := workload.ByName(js.Name)
		if err != nil {
			return fmt.Errorf("sim: restore core %d: %w", i, err)
		}
		cores[i] = &job{prof: p, remaining: js.Remaining, total: js.Total}
	}
	if err := m.model.Restore(st.Thermal); err != nil {
		return err
	}
	m.amb.Restore(st.Ambient)

	m.queue = queue
	m.cores = cores
	m.now = st.Now
	m.nextDTM = st.NextDTM
	m.nextRot = st.NextRot
	m.nextRec = st.NextRec
	m.rot = st.Rot
	m.steps = st.Steps
	m.decisions = st.Decisions
	m.act = st.Act
	m.hot = st.Hot
	m.res = cloneResult(st.Res)

	// Drop the resolved window, the hottest temperatures of the replaced
	// thermal state and the residency cells, which belong to the replaced
	// accumulator: the next step re-resolves its design point and takes
	// the temperatures afresh. The design-point memo stays: its records
	// are pure functions of their points, the same ones the shared store
	// returns, so the resumed run sees the identical rates a
	// never-checkpointed run would.
	m.stale = true
	m.hotOK = false
	m.coresCell, m.freqCell = resCell{}, resCell{}
	return nil
}

// Digest returns the canonical digest of the state: SHA-256 over its
// full-precision rendering, truncated to 16 hex digits (the
// core.ConfigDigest idiom). fmt renders maps in sorted key order and
// floats in shortest round-trippable form, so the digest is
// deterministic and distinct bit patterns digest differently.
func (st *MEMSpotState) Digest() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", *st)))
	return hex.EncodeToString(sum[:8])
}

// cloneResult deep-copies the accumulator so snapshot, live run, and any
// later restores never share trace slices or residency maps.
func cloneResult(r MEMSpotResult) MEMSpotResult {
	r.AMBTrace = append([]float64(nil), r.AMBTrace...)
	r.DRAMTrace = append([]float64(nil), r.DRAMTrace...)
	r.AmbientTrace = append([]float64(nil), r.AmbientTrace...)
	cores := make(map[int]float64, len(r.TimeAtCores))
	for k, v := range r.TimeAtCores {
		cores[k] = v
	}
	freq := make(map[int]float64, len(r.TimeAtFreq))
	for k, v := range r.TimeAtFreq {
		freq[k] = v
	}
	r.TimeAtCores, r.TimeAtFreq = cores, freq
	return r
}
