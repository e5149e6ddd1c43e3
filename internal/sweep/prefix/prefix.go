// Package prefix shares simulated prefixes across DTM policy slices.
//
// Specs that differ only in DTM policy replay an identical trace and an
// identical thermal trajectory until the first throttle decision
// diverges: every policy returns the same neutral action while the
// machine is below its emergency levels, so a 4-policy grid point pays
// for the shared warm-up prefix four times over under cold replay. This
// package runs the first spec of each policy-sliced group as a *leader*
// — recording every (input, action) decision pair and checkpointing the
// simulator state at strided decision boundaries — and turns the rest
// into *followers*: a follower probes its own fresh policy against the
// recorded log, finds the first decision where it would diverge, and
// resumes from the deepest checkpoint at or before that point instead of
// replaying from t=0. A follower whose policy matches the entire log
// reuses the leader's result outright.
//
// Groups live in a memo.Table keyed by the slice key, so a group's
// leader is the table's builder: siblings that arrive while it runs wait
// for it, and when the leader's client goes away one live sibling takes
// over the lead and the others follow that one instead.
//
// Correctness rests on a bit-identity proof obligation, discharged by
// the divergence differential suite in internal/simtest: restoring a
// checkpoint and warming a fresh policy with the recorded inputs must
// reproduce, bit for bit, the state a cold run would have reached —
// identical report tables, 0-ULP trajectories. Anything cheaper (the
// inexact-cuts temptation) is rejected by construction: only exact
// action matches extend the shared prefix. Groups live only in the
// sharer's memory; OnGroupComplete hands a digest-keyed record of each
// to a caller that wants to persist it.
package prefix

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"sync"
	"sync/atomic"

	"dramtherm/internal/core"
	"dramtherm/internal/dtm"
	"dramtherm/internal/memo"
	"dramtherm/internal/sim"
)

// maxCheckpoints bounds per-group checkpoints; when the leader would
// exceed it, every other checkpoint is dropped and the stride doubles.
const maxCheckpoints = 16

// maxDecisions bounds the recorded decision log (≈ 44 simulated minutes
// at the default 10 ms DTM interval, ~12 MB of records). Past the cap
// the leader stops recording; followers can still resume from any
// checkpoint within the recorded prefix, but full-result reuse is off.
const maxDecisions = 1 << 18

// maxGroups bounds the group table; the oldest completed group is
// evicted first, and in-flight groups are never evicted.
const maxGroups = 512

// DecisionRecord is one recorded policy invocation.
type DecisionRecord struct {
	In  dtm.Input
	Act dtm.Action
}

// Checkpoint is a restorable simulator state at a decision boundary:
// the state was taken immediately before decision Decision was asked.
// Its digest is taken only when the group is exported (export).
type Checkpoint struct {
	Decision int
	State    *sim.MEMSpotState
}

// CheckpointRecord is the persistable form of one checkpoint.
type CheckpointRecord struct {
	Decision    int
	StateDigest string
	State       sim.MEMSpotState
}

// GroupRecord is the persistable form of a completed group: the
// decision log plus its checkpoints, keyed by the slice key and the
// digest of the recorded trace.
type GroupRecord struct {
	Key         string
	TraceDigest string
	Truncated   bool
	Decisions   []DecisionRecord
	Checkpoints []CheckpointRecord
}

// Builder constructs a fresh, unstarted level-2 simulator instance for a
// resolved run spec. *core.System implements it; tests substitute
// synthetic systems.
type Builder interface {
	NewRun(core.RunSpec) (*sim.MEMSpot, error)
}

// Stats is a point-in-time snapshot of the sharer's counters.
type Stats struct {
	Groups         int
	Leaders        int64
	FullReuse      int64 // followers that reused the leader's result outright
	Resumed        int64 // followers resumed from a checkpoint
	Cold           int64 // followers that fell back to a cold replay
	Checkpoints    int64
	StepsSimulated int64 // windows actually stepped through the hot loop
	StepsSaved     int64 // windows skipped via checkpoint resume or full reuse
}

// group is one policy-sliced prefix group. The leader fills it in before
// the group table publishes it; everything is read-only for followers
// afterwards.
type group struct {
	decisions   []DecisionRecord
	checkpoints []Checkpoint
	truncated   bool
	res         sim.MEMSpotResult
	hasRes      bool
	steps       int64 // leader's total timeline steps, for full-reuse accounting
}

// Sharer coordinates prefix sharing across concurrently executing specs.
// The zero value is not usable; construct with New.
type Sharer struct {
	builder Builder
	groups  *memo.Table[string, *group]

	onComplete func(GroupRecord) // persistence hook; set before first Run

	leaders, fullReuse, resumed, cold atomic.Int64
	checkpoints                       atomic.Int64
	stepsRun, stepsSaved              atomic.Int64
}

// New returns a sharer building runs through b.
func New(b Builder) *Sharer {
	s := &Sharer{builder: b, groups: memo.New[string, *group](maxGroups)}
	s.groups.OnInsert(func(key string, g *group) {
		if s.onComplete != nil && len(g.checkpoints) > 0 {
			s.onComplete(export(key, g))
		}
	})
	return s
}

// OnGroupComplete registers fn to receive a persistable record of every
// leader-completed group that produced checkpoints. The sweep engine
// registers none. Call before the first Run.
func (s *Sharer) OnGroupComplete(fn func(GroupRecord)) { s.onComplete = fn }

// Stats returns a snapshot of the counters.
func (s *Sharer) Stats() Stats {
	return Stats{
		Groups:         s.groups.Len(),
		Leaders:        s.leaders.Load(),
		FullReuse:      s.fullReuse.Load(),
		Resumed:        s.resumed.Load(),
		Cold:           s.cold.Load(),
		Checkpoints:    s.checkpoints.Load(),
		StepsSimulated: s.stepsRun.Load(),
		StepsSaved:     s.stepsSaved.Load(),
	}
}

// Run executes one spec under prefix sharing. groupKey identifies the
// policy slice (all specs identical except policy share it); newRun
// resolves a fresh run spec — with a fresh policy instance — on every
// call. The first spec of a group leads (cold run, recording and
// checkpointing); later specs follow (probe, resume, or reuse). Results
// are bit-identical to a cold replay either way.
func (s *Sharer) Run(ctx context.Context, groupKey string, newRun func() (core.RunSpec, error)) (sim.MEMSpotResult, error) {
	var res sim.MEMSpotResult
	g, out, err := s.groups.Do(ctx, groupKey, func(ctx context.Context) (*group, error) {
		g := &group{}
		var err error
		res, err = s.runLeader(ctx, g, newRun)
		return g, err
	})
	switch {
	case out == memo.Built:
		return res, err
	case err != nil && ctx.Err() == nil:
		// The leader failed for its own reasons (a cancelled leader hands
		// off to a live follower inside Do instead): run cold.
		return s.runCold(ctx, newRun)
	case err != nil:
		return sim.MEMSpotResult{}, err
	}
	return s.runFollower(ctx, g, newRun)
}

// Recorder wraps a policy so every decision is captured; the prefix
// leader runs under one, and the differential suite uses it to build
// brute-force lockstep logs.
type Recorder struct {
	inner dtm.Policy
	log   []DecisionRecord
	full  bool
}

// NewRecorder wraps pol.
func NewRecorder(pol dtm.Policy) *Recorder { return &Recorder{inner: pol} }

// Name implements dtm.Policy.
func (r *Recorder) Name() string { return r.inner.Name() }

// Reset implements dtm.Policy and clears the log.
func (r *Recorder) Reset() {
	r.inner.Reset()
	r.log = r.log[:0]
	r.full = false
}

// Decide implements dtm.Policy, recording up to maxDecisions pairs.
func (r *Recorder) Decide(in dtm.Input) dtm.Action {
	act := r.inner.Decide(in)
	if len(r.log) < maxDecisions {
		r.log = append(r.log, DecisionRecord{In: in, Act: act})
	} else {
		r.full = true
	}
	return act
}

// Log returns the recorded decisions (owned by the recorder).
func (r *Recorder) Log() []DecisionRecord { return r.log }

// Truncated reports whether decisions beyond the cap went unrecorded.
func (r *Recorder) Truncated() bool { return r.full }

// DivergencePoint returns the index of the first recorded decision at
// which pol — fed the recorded inputs in order — would act differently,
// or len(log) if it matches throughout. The caller passes a fresh
// (reset) policy. Because inputs are functions of prior actions, the
// first index where the recorded and probed *actions* differ is exactly
// the first timestep at which a cold run of pol would depart from the
// leader's trajectory; the differential suite verifies this against
// brute-force lockstep simulation.
func DivergencePoint(log []DecisionRecord, pol dtm.Policy) int {
	for i, d := range log {
		if pol.Decide(d.In) != d.Act {
			return i
		}
	}
	return len(log)
}

// logPool recycles the leaders' decision-log scratch. Each scratch holds
// maxDecisions records, so recording never regrows it; a leader copies
// its exact-length log into the group and returns the scratch.
var logPool = sync.Pool{New: func() any {
	log := make([]DecisionRecord, 0, maxDecisions)
	return &log
}}

// runLeader executes a cold run, recording decisions and checkpointing
// at strided decision boundaries.
func (s *Sharer) runLeader(ctx context.Context, g *group, newRun func() (core.RunSpec, error)) (sim.MEMSpotResult, error) {
	s.leaders.Add(1)
	rs, err := newRun()
	if err != nil {
		return sim.MEMSpotResult{}, err
	}
	scratch := logPool.Get().(*[]DecisionRecord)
	defer logPool.Put(scratch)
	rec := &Recorder{inner: rs.Policy, log: (*scratch)[:0]}
	rs.Policy = rec
	ms, err := s.builder.NewRun(rs)
	if err != nil {
		return sim.MEMSpotResult{}, err
	}

	stride := 1
	snapsOK := true
	var cps []Checkpoint
	res, err := ms.RunHooked(ctx, func(m *sim.MEMSpot) error {
		d := m.Decisions()
		// The t=0 state is free to rebuild; checkpoint from decision
		// `stride` on, and only within the recorded (probe-able) prefix.
		if !snapsOK || d == 0 || d%stride != 0 || d >= maxDecisions {
			return nil
		}
		st, serr := m.Snapshot()
		if serr != nil {
			// Sensor-noise runs are not checkpointable; keep running cold
			// (the decision log still enables full-reuse detection).
			snapsOK = false
			cps = nil
			return nil
		}
		cps = append(cps, Checkpoint{Decision: d, State: st})
		if len(cps) >= maxCheckpoints {
			// Thin to every other checkpoint and double the stride.
			kept := cps[:0]
			for i := 1; i < len(cps); i += 2 {
				kept = append(kept, cps[i])
			}
			cps = kept
			stride *= 2
		}
		return nil
	})
	s.stepsRun.Add(ms.StepsTaken())
	if err != nil {
		return res, err
	}
	s.checkpoints.Add(int64(len(cps)))
	g.decisions = append([]DecisionRecord(nil), rec.Log()...)
	g.checkpoints = cps
	g.truncated = rec.Truncated()
	g.res = res
	g.hasRes = true
	g.steps = ms.StepsTaken()
	return res, nil
}

// runFollower probes a fresh policy against the group's log and resumes
// from the deepest usable checkpoint, reuses the leader's result on a
// full match, or falls back to a cold replay.
func (s *Sharer) runFollower(ctx context.Context, g *group, newRun func() (core.RunSpec, error)) (sim.MEMSpotResult, error) {
	if len(g.decisions) == 0 {
		return s.runCold(ctx, newRun)
	}

	probe, err := newRun()
	if err != nil {
		return sim.MEMSpotResult{}, err
	}
	probe.Policy.Reset()
	k := DivergencePoint(g.decisions, probe.Policy)
	if k == len(g.decisions) && g.hasRes && !g.truncated {
		// Identical decisions at identical inputs: the follower's
		// trajectory is the leader's, so its result is too. Results are
		// shared read-only by engine convention.
		s.fullReuse.Add(1)
		s.stepsSaved.Add(g.steps)
		return g.res, nil
	}
	var cp *Checkpoint
	for i := range g.checkpoints {
		if g.checkpoints[i].Decision <= k {
			cp = &g.checkpoints[i]
		} else {
			break
		}
	}
	if cp == nil {
		return s.runCold(ctx, newRun)
	}

	rs, err := newRun()
	if err != nil {
		return sim.MEMSpotResult{}, err
	}
	ms, err := s.builder.NewRun(rs)
	if err != nil {
		return sim.MEMSpotResult{}, err
	}
	// Warm the fresh policy with the recorded prefix: bit-identical
	// inputs reproduce bit-identical internal policy state (integrators,
	// hysteresis) at the checkpoint. NewRun has already Reset it.
	for i := 0; i < cp.Decision; i++ {
		rs.Policy.Decide(g.decisions[i].In)
	}
	if err := ms.Restore(cp.State); err != nil {
		return s.runCold(ctx, newRun)
	}
	inherited := ms.StepsTaken()
	res, err := ms.RunCtx(ctx)
	s.stepsRun.Add(ms.StepsTaken() - inherited)
	if err != nil {
		return res, err
	}
	s.resumed.Add(1)
	s.stepsSaved.Add(inherited)
	return res, nil
}

// runCold executes the spec without sharing.
func (s *Sharer) runCold(ctx context.Context, newRun func() (core.RunSpec, error)) (sim.MEMSpotResult, error) {
	s.cold.Add(1)
	rs, err := newRun()
	if err != nil {
		return sim.MEMSpotResult{}, err
	}
	ms, err := s.builder.NewRun(rs)
	if err != nil {
		return sim.MEMSpotResult{}, err
	}
	res, err := ms.RunCtx(ctx)
	s.stepsRun.Add(ms.StepsTaken())
	return res, err
}

// export builds the persistable record of a completed group; a published
// group is immutable, so no lock is needed.
func export(key string, g *group) GroupRecord {
	rec := GroupRecord{
		Key:         key,
		TraceDigest: TraceDigest(key, g.decisions),
		Truncated:   g.truncated,
		Decisions:   g.decisions,
	}
	for _, cp := range g.checkpoints {
		rec.Checkpoints = append(rec.Checkpoints, CheckpointRecord{
			Decision:    cp.Decision,
			StateDigest: cp.State.Digest(),
			State:       *cp.State,
		})
	}
	return rec
}

// TraceDigest is the canonical digest of a group's identity: the slice
// key plus the full-precision rendering of its decision log, hashed and
// truncated to 16 hex digits (the core.ConfigDigest idiom). Each record
// renders as fmt's "%+v" would, one per line, written out field by field
// with strconv, so a digest matches the one older builds persisted.
func TraceDigest(key string, log []DecisionRecord) string {
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	buf = append(append(buf, key...), '\n')
	for i := range log {
		buf = appendDecision(buf, &log[i])
		if len(buf) > 3*1024 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// appendDecision appends d rendered as fmt's "%+v" and a newline: floats
// in shortest 'g' form (+Inf keeps its sign, NaN has none), ints in
// decimal, field names spelled out.
func appendDecision(b []byte, d *DecisionRecord) []byte {
	b = append(b, "{In:{AMB:"...)
	b = strconv.AppendFloat(b, d.In.AMB, 'g', -1, 64)
	b = append(b, " DRAM:"...)
	b = strconv.AppendFloat(b, d.In.DRAM, 'g', -1, 64)
	b = append(b, " Now:"...)
	b = strconv.AppendFloat(b, d.In.Now, 'g', -1, 64)
	b = append(b, " Dt:"...)
	b = strconv.AppendFloat(b, d.In.Dt, 'g', -1, 64)
	b = append(b, "} Act:{MemOff:"...)
	b = strconv.AppendBool(b, d.Act.MemOff)
	b = append(b, " BWCapGBps:"...)
	b = strconv.AppendFloat(b, d.Act.BWCapGBps, 'g', -1, 64)
	b = append(b, " ActiveCores:"...)
	b = strconv.AppendInt(b, int64(d.Act.ActiveCores), 10)
	b = append(b, " FreqIndex:"...)
	b = strconv.AppendInt(b, int64(d.Act.FreqIndex), 10)
	return append(b, "}}\n"...)
}
