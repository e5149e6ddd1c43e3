package sweep

import (
	"context"
	"fmt"
	"sync"

	"dramtherm/internal/report"
	"dramtherm/internal/sim"
)

// EventKind classifies a per-spec run lifecycle event.
type EventKind string

const (
	// EventStarted fires when a spec's run begins executing (or begins
	// waiting for the cache/pool — before any result exists).
	EventStarted EventKind = "spec_started"
	// EventFinished fires when a spec's run completes successfully.
	EventFinished EventKind = "spec_finished"
	// EventError fires when a spec's run fails or is cancelled.
	EventError EventKind = "spec_error"
	// EventRoundStarted marks an adaptive-search round boundary:
	// Engine.Search is about to sweep the round's specs.
	EventRoundStarted EventKind = "round_started"
	// EventRoundFinished fires when a search round's sweep completes
	// and the survivors are chosen, carrying how many candidates
	// survived and how many were pruned.
	EventRoundFinished EventKind = "round_finished"
)

// Event is one per-spec lifecycle notification from Sweep or a
// single-run job. Events mark run starts and finishes and carry the
// cache outcome, so observers can distinguish fresh simulations from
// cache hits and deduplicated joins.
type Event struct {
	Kind  EventKind
	Index int // position in the sweep's spec list; 0 for single runs
	Spec  Spec
	Done  int // specs finished so far including this one (finish events)
	Total int // sweep size; 1 for single runs
	// Outcome tells how the run was served (finish events): Built means
	// this call simulated, Hit a completed cache entry, Joined an
	// identical in-flight run. In cluster mode the outcome is the
	// executing peer's (a Hit means its cache was warm for the shard).
	Outcome Outcome
	// Peer identifies the cluster member that executed the run: a peer
	// id, "local" for the remote backend's local fallback, or empty on
	// single-node engines and local cache hits/joins.
	Peer    string
	Seconds float64 // simulated runtime, on EventFinished
	Err     error   // non-nil on EventError

	// Round-boundary payload (EventRoundStarted/EventRoundFinished only).
	// Round is the zero-based round index, Rung the round's fidelity
	// multiplier; Survivors counts candidates advancing past the round
	// and Pruned the candidates discarded after it.
	Round     int
	Rung      float64
	Survivors int
	Pruned    int
}

// Options tunes Sweep execution.
type Options struct {
	// Normalize additionally runs each spec's No-limit baseline and
	// fills Result.Norms with normalized runtimes.
	Normalize bool
	// OnEvent, when non-nil, observes run starts, finishes and cache
	// outcomes (see Event). Finish events (EventFinished/EventError) are
	// delivered serialized and in completion order — their Done counters
	// never regress — so the callback must be fast and must not call
	// back into the engine. Start events are delivered concurrently, from
	// worker goroutines, so the callback must be safe for concurrent use.
	OnEvent func(Event)
}

// Result holds the outcome of one sweep, positionally aligned with the
// submitted specs.
type Result struct {
	Specs   []Spec
	Results []sim.MEMSpotResult
	// Norms is runtime normalized to the No-limit baseline; only filled
	// when Options.Normalize is set.
	Norms []float64
}

// Sweep executes all specs concurrently through the run cache (duplicate
// specs collapse to one simulation; parallelism is bounded by the worker
// pool) and returns positionally aligned results. The spec after a
// machine spec starts once that spec holds a pool slot or was served
// without one, so Chapter 5 plans, whose neighbours differ in mix, do
// not wait on one level-1 build; Chapter 4 plans measured slower started
// so. The first error cancels the remaining jobs and is returned; ctx
// cancellation does the same with ctx.Err(). With a BatchBackend
// installed the grid's distinct uncached specs are handed to the backend
// in one call (one request per cluster peer) instead of one shard per
// spec; per-spec cache and event semantics are unchanged.
func (e *Engine) Sweep(ctx context.Context, specs []Spec, opts Options) (*Result, error) {
	res := &Result{
		Specs:   specs,
		Results: make([]sim.MEMSpotResult, len(specs)),
		Norms:   make([]float64, len(specs)),
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	runOne := e.Run
	if e.batch != nil {
		// The dispatcher goroutine is bounded by ctx, which the deferred
		// cancel kills when the sweep returns.
		runOne = e.batchRunner(ctx, specs, opts.Normalize)
	}
	// normOne computes runtime(spec)/runtime(baseline) through runOne,
	// so in batched mode the No-limit baselines ride the batch plan too
	// instead of dispatching one shard each.
	normOne := func(ctx context.Context, spec Spec, r sim.MEMSpotResult) (float64, error) {
		base, _, err := runOne(ctx, e.BaselineSpec(spec))
		if err != nil {
			return 0, err
		}
		if base.Seconds == 0 {
			return 0, fmt.Errorf("sweep: zero-length baseline for %s", spec)
		}
		return r.Seconds / base.Seconds, nil
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		done     int
		firstErr error
	)
	// started[i] closes once machine spec i holds a pool slot or was
	// served without one, and only then does spec i+1 start. A repeat of
	// an earlier spec joins or hits its run, so it gets none: it must not
	// hold back the specs after it while that run lasts.
	started := make([]chan struct{}, len(specs))
	seen := make(map[Key]bool)
	for i, sp := range specs {
		if k := e.Key(sp); sp.Machine != "" && !seen[k] {
			seen[k], started[i] = true, make(chan struct{})
		}
	}
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if opts.OnEvent != nil {
				opts.OnEvent(Event{Kind: EventStarted, Index: i, Spec: specs[i], Total: len(specs)})
			}
			runCtx, signal := ctx, func() {}
			if ch := started[i]; ch != nil {
				signal = sync.OnceFunc(func() { close(ch) })
				runCtx = context.WithValue(ctx, startedKey{}, signal)
			}
			r, info, err := runOne(runCtx, specs[i])
			signal()
			if err == nil {
				res.Results[i] = r
				if opts.Normalize {
					// The spec's own run is already in hand, so this only
					// adds the No-limit baseline.
					res.Norms[i], err = normOne(ctx, specs[i], r)
				}
			}
			mu.Lock()
			done++
			n := done
			if err != nil && firstErr == nil {
				firstErr = err
				cancel()
			}
			// Finish events go out under the lock so observers (e.g. a
			// job event log feeding SSE) see Done counters in order.
			if opts.OnEvent != nil {
				ev := Event{Kind: EventFinished, Index: i, Spec: specs[i],
					Done: n, Total: len(specs), Outcome: info.Outcome, Peer: info.Peer, Seconds: r.Seconds}
				if err != nil {
					ev = Event{Kind: EventError, Index: i, Spec: specs[i],
						Done: n, Total: len(specs), Outcome: info.Outcome, Peer: info.Peer, Err: err}
				}
				opts.OnEvent(ev)
			}
			mu.Unlock()
		}(i)
		if started[i] != nil {
			select {
			case <-started[i]:
			case <-ctx.Done():
			}
		}
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}

// batchRunner plans a sweep's distinct uncached specs — plus their
// No-limit baselines when normalizing — into one BatchBackend call and
// returns a Run-equivalent runner whose cache builders wait on the batch
// stream instead of dispatching one shard per spec. Every run still
// flows through the cache, so duplicate specs join, concurrent sweeps
// deduplicate, and observers see the same built/hit/joined outcomes and
// peer ids as Run.
func (e *Engine) batchRunner(ctx context.Context, specs []Spec, normalize bool) func(context.Context, Spec) (sim.MEMSpotResult, RunInfo, error) {
	type pending struct {
		done chan struct{}
		delivery
	}
	pend := make(map[Key]*pending)
	var batch []Spec
	plan := func(sp Spec) {
		k := e.Key(sp)
		if pend[k] != nil {
			return // duplicate within the grid: one dispatch, others join
		}
		if _, ok := e.cache.Get(k); ok {
			return // already cached: the runner will Hit
		}
		pend[k] = &pending{done: make(chan struct{})}
		batch = append(batch, sp)
	}
	for _, sp := range specs {
		if e.Validate(sp) != nil {
			continue // fails fast in its own runner, nothing to dispatch
		}
		plan(sp)
		if normalize {
			plan(e.BaselineSpec(sp))
		}
	}
	if len(batch) > 0 {
		go e.batch.RunSpecs(ctx, batch, func(i int, res sim.MEMSpotResult, info RunInfo, err error) {
			p := pend[e.Key(batch[i])]
			p.delivery = delivery{res, info, err}
			close(p.done)
		})
	}
	return func(ctx context.Context, spec Spec) (sim.MEMSpotResult, RunInfo, error) {
		p := pend[e.Key(spec)]
		if p == nil {
			// Not planned: invalid or cached at plan time, so Run
			// rejects or serves it.
			return e.Run(ctx, spec)
		}
		return e.serve(ctx, spec, func(ctx context.Context, spec Spec) (sim.MEMSpotResult, RunInfo, error) {
			select {
			case <-p.done:
			case <-ctx.Done():
				return sim.MEMSpotResult{}, RunInfo{}, ctx.Err()
			}
			return e.settle(ctx, spec, p.delivery)
		})
	}
}

// Table aggregates the sweep into a report table with one row per mix
// and one column per policy, in first-appearance order. The cell value
// is the normalized runtime when norms were computed, otherwise raw
// seconds. Cells never produced by the sweep render empty.
func (r *Result) Table(caption string) *report.Table {
	value := func(i int) float64 {
		if len(r.Norms) == len(r.Specs) && r.Norms[i] != 0 {
			return r.Norms[i]
		}
		return r.Results[i].Seconds
	}
	var mixes, policies []string
	seenMix := map[string]int{}
	seenPol := map[string]int{}
	cells := map[[2]int]float64{}
	for i, s := range r.Specs {
		n := s.normalize()
		mi, ok := seenMix[n.Mix]
		if !ok {
			mi = len(mixes)
			seenMix[n.Mix] = mi
			mixes = append(mixes, n.Mix)
		}
		pi, ok := seenPol[n.Policy]
		if !ok {
			pi = len(policies)
			seenPol[n.Policy] = pi
			policies = append(policies, n.Policy)
		}
		cells[[2]int{mi, pi}] = value(i)
	}
	t := report.NewTable(caption, append([]string{"mix"}, policies...)...)
	for mi, mix := range mixes {
		row := []string{mix}
		for pi := range policies {
			if v, ok := cells[[2]int{mi, pi}]; ok {
				row = append(row, report.FormatFloat(v))
			} else {
				row = append(row, "")
			}
		}
		t.AddRow(row...)
	}
	return t
}
