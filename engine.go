package dramtherm

import (
	"time"

	"dramtherm/internal/core"
	"dramtherm/internal/sweep"
)

// Re-exported sweep types: the concurrent engine's vocabulary, usable
// without importing any internal package. See internal/sweep for full
// documentation.
type (
	// Spec names one run by value — mix, policy, cooling, model — the
	// engine's canonical cache key (sweep.Spec).
	Spec = sweep.Spec
	// Grid expands (mixes × policies × coolings × models) into specs
	// (sweep.Grid).
	Grid = sweep.Grid
	// SweepOptions configures Engine.Sweep (sweep.Options).
	SweepOptions = sweep.Options
	// SweepResult is a completed sweep: per-spec results plus rendered
	// tables (sweep.Result).
	SweepResult = sweep.Result
	// CacheStats snapshots the engine's run cache (sweep.Stats).
	CacheStats = sweep.Stats
	// StateStats snapshots the durable segment log (sweep.StateStats).
	StateStats = sweep.StateStats

	// Event is one per-spec (or per-round) lifecycle notification
	// delivered to SweepOptions.OnEvent and SearchOptions.OnEvent
	// (sweep.Event).
	Event = sweep.Event
	// EventKind classifies an Event (sweep.EventKind).
	EventKind = sweep.EventKind
	// Outcome tells how a run was served: built, cache hit, or joined
	// an in-flight duplicate (sweep.Outcome).
	Outcome = sweep.Outcome
	// RunInfo is the outcome plus the executing cluster peer
	// (sweep.RunInfo).
	RunInfo = sweep.RunInfo
)

// Event kinds delivered to OnEvent callbacks.
const (
	EventStarted       = sweep.EventStarted
	EventFinished      = sweep.EventFinished
	EventError         = sweep.EventError
	EventRoundStarted  = sweep.EventRoundStarted
	EventRoundFinished = sweep.EventRoundFinished
)

// Cache outcomes carried by Event.Outcome and RunInfo.Outcome.
const (
	Built  = sweep.Built
	Hit    = sweep.Hit
	Joined = sweep.Joined
)

// Re-exported adaptive-search types (see Engine.Search).
type (
	// SearchOptions configures Engine.Search: normalization, events,
	// the fidelity ladder and the keep fraction (sweep.SearchOptions).
	SearchOptions = sweep.SearchOptions
	// SearchResult is a completed adaptive search: rounds, winner,
	// full-fidelity run count (sweep.SearchResult).
	SearchResult = sweep.SearchResult
	// SearchRound is one completed round of a search (sweep.SearchRound).
	SearchRound = sweep.SearchRound
)

// Engine is the public handle on the concurrent sweep engine: a
// deduplicating, memoizing run cache over a bounded simulation worker
// pool, with optional durable state. It embeds *sweep.Engine, so the
// full engine surface is available directly: Run and Sweep execute
// through the cache, Search finds the best candidate by successive
// halving over cheap fidelity rungs, Exec runs one spec uncached,
// Normalized divides by the No-limit baseline, and Stats, PrefixStats
// and StateStats report the cache, prefix-sharing and segment-log
// counters.
//
//	eng, err := dramtherm.NewEngine(dramtherm.DefaultConfig(),
//		dramtherm.WithWorkers(8),
//		dramtherm.WithStateDir("/var/lib/dramtherm/state"))
//	defer eng.Close()
//	res, err := eng.Sweep(ctx, dramtherm.Grid{
//		Mixes:    []string{"W1", "W2"},
//		Policies: []string{"DTM-TS", "DTM-ACG"},
//	}.Expand(), dramtherm.SweepOptions{Normalize: true})
type Engine struct {
	*sweep.Engine
}

// engineOptions collects NewEngine's functional options.
type engineOptions struct {
	workers      int
	stateDir     string
	compactEvery time.Duration
	prefixShare  bool
}

// EngineOption configures NewEngine.
type EngineOption func(*engineOptions)

// WithWorkers sets the simulation worker-pool width (<= 0 selects
// GOMAXPROCS).
func WithWorkers(n int) EngineOption {
	return func(o *engineOptions) { o.workers = n }
}

// WithStateDir makes the engine's cache durable: completed runs and
// level-1 traces append to a crash-safe segment log under dir as they
// finish, and replay into the cache when the engine is built. An empty
// dir is a no-op, so flag values pass through unconditionally.
func WithStateDir(dir string) EngineOption {
	return func(o *engineOptions) { o.stateDir = dir }
}

// WithCompactInterval sets the background segment-log compaction period
// (default 10m; 0 disables background compaction). Only meaningful with
// WithStateDir.
func WithCompactInterval(d time.Duration) EngineOption {
	return func(o *engineOptions) { o.compactEvery = d }
}

// WithPrefixSharing turns on prefix-state checkpointing: specs that
// differ only in DTM policy form a group whose shared warm-up prefix
// simulates once — the group's first run records its policy decisions
// and checkpoints the simulator at strided decision boundaries, and
// later policies resume from the checkpoint before their first
// divergent decision instead of replaying from t=0. Results are
// bit-identical to cold replay (the divergence differential suite in
// internal/simtest is the proof). Groups live only in memory; with
// WithStateDir the finished runs persist, so a restarted engine serves
// them as hits without sharing anything.
func WithPrefixSharing() EngineOption {
	return func(o *engineOptions) { o.prefixShare = true }
}

// NewEngine builds a concurrent sweep engine over a System configured
// by cfg. With no options the engine is purely in-memory; state options
// make its cache durable across restarts. Callers that enabled state
// should Close the engine when done.
func NewEngine(cfg Config, opts ...EngineOption) (*Engine, error) {
	o := engineOptions{compactEvery: 10 * time.Minute}
	for _, opt := range opts {
		opt(&o)
	}
	eng := sweep.NewEngine(core.NewSystem(cfg), o.workers)
	if o.prefixShare {
		eng.EnablePrefixSharing()
	}
	if o.stateDir != "" {
		if err := eng.EnableSegmentLog(o.stateDir, o.compactEvery); err != nil {
			return nil, err
		}
	}
	return &Engine{Engine: eng}, nil
}
