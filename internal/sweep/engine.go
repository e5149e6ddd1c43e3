package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"dramtherm/internal/core"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/memo"
	"dramtherm/internal/obs"
	"dramtherm/internal/sim"
	"dramtherm/internal/sweep/prefix"
	"dramtherm/internal/workload"
)

// RunFunc executes one resolved level-2 run. The default is
// core.System.RunCtx; tests substitute counting fakes via SetRunFunc.
type RunFunc func(ctx context.Context, spec core.RunSpec) (sim.MEMSpotResult, error)

// Outcome reports how a run was served: by simulating it, by a completed
// cache entry, or by joining an identical in-flight run.
type Outcome = memo.Outcome

// Run outcomes.
const (
	// Built: this caller was the leader and produced the result itself.
	Built = memo.Built
	// Hit: served from a completed cache entry, no work at all.
	Hit = memo.Hit
	// Joined: deduplicated against another caller's in-flight run.
	Joined = memo.Joined
)

// Stats summarizes run-cache traffic; Builds counts leader runs — the
// unique simulations requested.
type Stats = memo.Stats

// RunInfo describes how a run was ultimately served: the cache outcome
// plus, for runs dispatched through a backend, the identity of the
// cluster member that executed it.
type RunInfo struct {
	// Outcome is how the serving node obtained the result. With a
	// backend set it is the backend's outcome (a Hit here means the
	// remote peer served its own cached entry).
	Outcome Outcome
	// Peer identifies who executed the run: a remote peer id, "local"
	// for a backend's local fallback, or empty for plain local engines
	// and for local cache hits/joins.
	Peer string
}

// SpecBackend executes one validated spec on behalf of the engine, one
// spec at a time (SetBackend) — the seam for executors that wrap single
// runs; the cluster backend implements BatchBackend instead. The engine
// still deduplicates through its local cache; the backend is
// only invoked on the leader path, once per distinct key, and its
// RunInfo replaces the engine's own Built outcome so observers see how
// the run was really served (built/hit/joined on which peer).
type SpecBackend interface {
	RunSpec(ctx context.Context, spec Spec) (sim.MEMSpotResult, RunInfo, error)
}

// ErrRunLocal is the sentinel a BatchBackend delivers for specs no peer
// could serve: instead of executing the run itself (which would bypass
// the worker pool), the backend hands it back and the engine executes it
// locally inside the leader's pool slot.
var ErrRunLocal = errors.New("sweep: no peer available, execute locally")

// localPeer is the RunInfo.Peer reported for specs the engine executed
// itself after an ErrRunLocal delivery.
const localPeer = "local"

// BatchBackend executes shards of specs on behalf of the engine — the
// seam the cluster backend implements (see internal/sweep/remote). Sweep
// hands it every distinct uncached spec of a grid in one call, so each
// cluster peer gets its whole shard in a single request, and Run sends
// it a shard of one. deliver must be called exactly once per spec index,
// from any goroutine, as outcomes become available; RunSpecs returns
// when every index has been delivered or ctx is done. A spec no peer can
// serve is delivered with ErrRunLocal (the engine runs it on its own
// pool); any other delivered error is terminal for that spec.
type BatchBackend interface {
	RunSpecs(ctx context.Context, specs []Spec, deliver func(i int, res sim.MEMSpotResult, info RunInfo, err error))
}

// delivery is one spec's outcome as a BatchBackend delivered it.
type delivery struct {
	res  sim.MEMSpotResult
	info RunInfo
	err  error
}

// Engine serves level-2 runs from a deduplicating cache over one
// core.System. It is safe for concurrent use by any number of callers;
// actual simulation work is bounded by the engine's worker pool.
type Engine struct {
	sys      *core.System
	digest   string // sys.ConfigDigest(): the scope of run-cache keys
	cache    *memo.Table[Key, sim.MEMSpotResult]
	sem      chan struct{}  // worker pool: one slot per leader build
	buildDur *obs.Histogram // leader build latency; nil until Instrument
	search   *searchMetrics // nil until Instrument
	run      RunFunc
	backend  SpecBackend
	batch    BatchBackend
	policies map[string]bool

	// Prefix sharing (EnablePrefixSharing): nil means cold replay for
	// every spec. runCustom records that SetRunFunc replaced the default
	// local runner — prefix sharing then steps aside, because it drives
	// the simulator directly rather than through the run function.
	prefix    *prefix.Sharer
	runCustom bool

	// Durable-state machinery (state.go); all nil/zero until
	// EnableSegmentLog.
	seglog      *SegmentLog
	l1digest    string // sys.Level1Digest(): the scope of persisted trace records
	compactStop chan struct{}
	compactDone chan struct{}
	appendErrs  atomic.Int64
	// Foreign records replay dropped, by kind.
	skippedRuns, skippedTraces atomic.Int64
}

// NewEngine builds an engine over sys with the given worker-pool width
// (<= 0 selects GOMAXPROCS).
func NewEngine(sys *core.System, workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		sys:      sys,
		digest:   sys.ConfigDigest(),
		cache:    memo.New[Key, sim.MEMSpotResult](0),
		sem:      make(chan struct{}, workers),
		policies: make(map[string]bool),
	}
	for _, n := range core.PolicyNames() {
		e.policies[n] = true
	}
	e.run = sys.RunCtx
	return e
}

// System returns the underlying simulation system.
func (e *Engine) System() *core.System { return e.sys }

// Workers returns the simulation worker-pool width.
func (e *Engine) Workers() int { return cap(e.sem) }

// Stats returns run-cache traffic counters.
func (e *Engine) Stats() Stats { return e.cache.Stats() }

// SetRunFunc replaces the local run function. It must be called before
// the engine is shared across goroutines. An engine with a custom run
// function executes every spec through it — prefix sharing, which
// drives the simulator directly, is bypassed.
func (e *Engine) SetRunFunc(fn RunFunc) {
	e.run = fn
	e.runCustom = true
}

// EnablePrefixSharing turns on prefix-state checkpointing across DTM
// policy slices: specs that differ only in policy form a group whose
// first run leads (recording decisions, checkpointing state at decision
// boundaries) and whose later runs resume from the deepest checkpoint
// before their first divergent decision — or reuse the leader's result
// outright when the decision logs match in full. Results are
// bit-identical to cold replay (enforced by internal/simtest's
// divergence differential suite). It must be called before the engine
// is shared across goroutines; call it before EnableSegmentLog so
// persisted checkpoint records replay into the sharer.
func (e *Engine) EnablePrefixSharing() {
	if e.prefix != nil {
		return
	}
	e.prefix = prefix.New(e.sys)
	if e.seglog != nil {
		e.prefix.OnGroupComplete(e.appendCheckpoint)
	}
}

// PrefixStats returns the prefix sharer's counters and whether sharing
// is enabled.
func (e *Engine) PrefixStats() (prefix.Stats, bool) {
	if e.prefix == nil {
		return prefix.Stats{}, false
	}
	return e.prefix.Stats(), true
}

// sliceKey is the group identity for prefix sharing: the spec's
// canonical key with the policy wildcarded, so specs identical except
// for policy land in the same group. normalize never produces "*", so
// slice keys cannot collide with real spec keys.
func (e *Engine) sliceKey(spec Spec) string {
	spec = spec.normalize()
	spec.Policy = "*"
	return string(spec.Key(e.digest))
}

// SetBackend routes cache misses through b, one spec at a time, instead
// of local execution. It must be called before the engine is shared
// across goroutines. Backends that need a local fallback should capture
// Exec.
func (e *Engine) SetBackend(b SpecBackend) {
	e.backend = b
	e.batch = nil
}

// SetBatchBackend routes cache misses through b (cluster mode): Sweep
// plans each grid's distinct uncached specs into one RunSpecs call (one
// request per cluster peer), and Run sends b a shard of one. It must be
// called before the engine is shared across goroutines.
func (e *Engine) SetBatchBackend(b BatchBackend) {
	e.backend = nil
	e.batch = b
}

// Key canonicalizes the spec under this engine's configuration digest —
// the identity the run cache and the remote backend's consistent-hash
// ring both shard on.
func (e *Engine) Key(spec Spec) Key { return spec.Key(e.digest) }

// Validate checks the spec without constructing any run state: name
// lookups plus the limits-override shape. A Limits override must be
// complete — the simulator treats AMBTDP==0 as "no override", so a
// partial override would be silently ignored while still producing a
// distinct cache key.
func (e *Engine) Validate(spec Spec) error {
	spec = spec.normalize()
	if _, err := workload.MixByName(spec.Mix); err != nil {
		return err
	}
	if !e.policies[spec.Policy] {
		return fmt.Errorf("core: unknown policy %q", spec.Policy)
	}
	if _, err := fbconfig.CoolingByName(spec.Cooling); err != nil {
		return err
	}
	if _, err := spec.modelKind(); err != nil {
		return err
	}
	if lim := spec.Limits; lim != (fbconfig.ThermalLimits{}) &&
		(lim.AMBTDP == 0 || lim.DRAMTDP == 0 || lim.AMBTRP == 0 || lim.DRAMTRP == 0) {
		return fmt.Errorf("sweep: partial limits override %+v: all four of AMBTDP, DRAMTDP, AMBTRP, DRAMTRP must be set", lim)
	}
	// normalize has already mapped 0 to 1, so anything non-positive (or
	// non-finite) here was an explicit bad value.
	if !(spec.InstrScale > 0) || math.IsInf(spec.InstrScale, 1) {
		return fmt.Errorf("sweep: instr_scale %g out of range: must be a finite positive fidelity multiplier", spec.InstrScale)
	}
	return nil
}

// Resolve validates the spec and binds it to live objects: the workload
// mix, a fresh policy (policies are stateful, so every call constructs a
// new one), and the cooling column.
func (e *Engine) Resolve(spec Spec) (core.RunSpec, error) {
	if err := e.Validate(spec); err != nil {
		return core.RunSpec{}, err
	}
	spec = spec.normalize()
	mix, err := workload.MixByName(spec.Mix)
	if err != nil {
		return core.RunSpec{}, err
	}
	cool, err := fbconfig.CoolingByName(spec.Cooling)
	if err != nil {
		return core.RunSpec{}, err
	}
	model, err := spec.modelKind()
	if err != nil {
		return core.RunSpec{}, err
	}
	lim := e.sys.Config().Limits
	if spec.Limits.AMBTDP != 0 {
		lim = spec.Limits
	}
	p, err := e.sys.NewPolicyFor(spec.Policy, lim)
	if err != nil {
		return core.RunSpec{}, err
	}
	return core.RunSpec{
		Mix:        mix,
		Policy:     p,
		Cooling:    cool,
		Model:      model,
		PsiXi:      spec.PsiXi,
		Interval:   spec.Interval,
		Limits:     spec.Limits,
		InstrScale: spec.InstrScale,
	}, nil
}

// Run executes the spec through the run cache, deduplicating against
// identical in-flight and completed runs, and reports how it was served:
// whether this call simulated, hit a completed entry or joined an
// identical in-flight run and, in cluster mode, the peer that executed
// it. The returned result is shared with other callers and must be
// treated as read-only.
func (e *Engine) Run(ctx context.Context, spec Spec) (sim.MEMSpotResult, RunInfo, error) {
	// Validate eagerly (without building run state) so bad specs fail
	// fast even on the cache hit path, and so resolution inside the
	// builder cannot fail.
	if err := e.Validate(spec); err != nil {
		return sim.MEMSpotResult{}, RunInfo{}, err
	}
	return e.serve(ctx, spec, e.lead)
}

// serve runs spec through the run cache with lead as the leader body.
// The leader runs synchronously inside do, so its RunInfo is safe to
// read whenever the outcome is Built; joiners and hits report only
// their outcome.
func (e *Engine) serve(ctx context.Context, spec Spec, lead func(context.Context, Spec) (sim.MEMSpotResult, RunInfo, error)) (sim.MEMSpotResult, RunInfo, error) {
	var served RunInfo
	res, out, err := e.do(ctx, spec.Key(e.digest), func(ctx context.Context) (sim.MEMSpotResult, error) {
		r, info, err := lead(ctx, spec)
		served = info
		return r, err
	})
	if out != Built {
		served = RunInfo{Outcome: out}
	}
	return res, served, err
}

// lead is Run's leader body: a shard of one through the batch backend,
// the spec backend, or local execution.
func (e *Engine) lead(ctx context.Context, spec Spec) (sim.MEMSpotResult, RunInfo, error) {
	switch {
	case e.batch != nil:
		ch := make(chan delivery, 1)
		e.batch.RunSpecs(ctx, []Spec{spec}, func(_ int, res sim.MEMSpotResult, info RunInfo, err error) {
			ch <- delivery{res, info, err}
		})
		select {
		case d := <-ch:
			return e.settle(ctx, spec, d)
		default:
			// RunSpecs returned without delivering: ctx is done.
			return sim.MEMSpotResult{}, RunInfo{}, ctx.Err()
		}
	case e.backend != nil:
		return e.backend.RunSpec(ctx, spec)
	}
	res, err := e.Exec(ctx, spec)
	return res, RunInfo{Outcome: Built}, err
}

// settle turns a batch delivery into the leader's result: an ErrRunLocal
// delivery executes the spec here, inside the leader's pool slot.
func (e *Engine) settle(ctx context.Context, spec Spec, d delivery) (sim.MEMSpotResult, RunInfo, error) {
	if errors.Is(d.err, ErrRunLocal) {
		res, err := e.Exec(ctx, spec)
		return res, RunInfo{Outcome: Built, Peer: localPeer}, err
	}
	return d.res, d.info, d.err
}

// do serves key from the run cache, running build as the leader body
// inside a worker-pool slot. The slot is taken after the flight is
// registered, so joiners wait on it; a leader whose ctx is done before
// or while it waits for a slot returns ctx.Err() without building.
func (e *Engine) do(ctx context.Context, key Key, build func(context.Context) (sim.MEMSpotResult, error)) (sim.MEMSpotResult, Outcome, error) {
	return e.cache.Do(ctx, key, func(ctx context.Context) (sim.MEMSpotResult, error) {
		select {
		case e.sem <- struct{}{}:
		case <-ctx.Done():
			return sim.MEMSpotResult{}, ctx.Err()
		}
		defer func() { <-e.sem }()
		if err := ctx.Err(); err != nil {
			// A free slot and a dead ctx were both ready; select picked
			// the slot.
			return sim.MEMSpotResult{}, err
		}
		if e.buildDur == nil {
			return build(ctx)
		}
		t0 := time.Now()
		res, err := build(ctx)
		e.buildDur.Observe(time.Since(t0).Seconds())
		return res, err
	})
}

// Exec executes the spec locally, uncached: the leader body behind the
// cache — prefix sharing when it is enabled and no custom RunFunc is
// set, the run function otherwise. It is also what the engine runs for
// a batch backend's ErrRunLocal deliveries, and the local-fallback hook
// a SpecBackend calls from inside a cache leader, where Run would wait
// on its own flight. Most callers want Run.
func (e *Engine) Exec(ctx context.Context, spec Spec) (sim.MEMSpotResult, error) {
	if e.prefix != nil && !e.runCustom {
		return e.prefix.Run(ctx, e.sliceKey(spec), func() (core.RunSpec, error) {
			return e.Resolve(spec)
		})
	}
	rs, err := e.Resolve(spec) // fresh policy for this execution
	if err != nil {
		return sim.MEMSpotResult{}, err
	}
	return e.run(ctx, rs)
}

// Normalized executes the spec and its No-limit baseline (same mix,
// cooling, model and psi-xi, default interval and limits) and returns
// runtime(spec)/runtime(baseline) — the unit of the paper's figures.
func (e *Engine) Normalized(ctx context.Context, spec Spec) (float64, error) {
	res, _, err := e.Run(ctx, spec)
	if err != nil {
		return 0, err
	}
	base, _, err := e.Run(ctx, e.BaselineSpec(spec))
	if err != nil {
		return 0, err
	}
	if base.Seconds == 0 {
		return 0, fmt.Errorf("sweep: zero-length baseline for %s", spec)
	}
	return res.Seconds / base.Seconds, nil
}

// BaselineSpec returns the No-limit normalization partner of spec. The
// baseline shares the spec's fidelity rung, so a low-fidelity search
// round normalizes against an equally cheap baseline.
func (e *Engine) BaselineSpec(spec Spec) Spec {
	return Spec{
		Mix:        spec.Mix,
		Policy:     "No-limit",
		Cooling:    spec.Cooling,
		Model:      spec.Model,
		PsiXi:      spec.PsiXi,
		InstrScale: spec.InstrScale,
	}
}

// Persistence lives in state.go: the engine appends completed runs and
// level-1 trace records to a crash-safe segment log (EnableSegmentLog)
// instead of rewriting a monolithic blob at shutdown.
