package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"dramtherm/internal/report"
)

// defaultRungs is the fidelity ladder Search climbs when
// SearchOptions.Rungs is empty: two cheap rungs, then full fidelity.
var defaultRungs = []float64{0.25, 0.5, 1}

// SearchOptions tunes Search.
type SearchOptions struct {
	// Normalize makes the objective the normalized runtime
	// runtime(spec)/runtime(No-limit baseline), the unit of the paper's
	// figures. Baselines share each round's fidelity rung, so they stay
	// cheap. When false the objective is raw simulated seconds.
	Normalize bool
	// OnEvent observes the search: round_started/round_finished
	// boundaries plus every per-spec event of the underlying sweeps.
	// The Options.OnEvent contract applies.
	OnEvent func(Event)
	// Rungs is the ascending fidelity ladder (default 0.25, 0.5, 1).
	// Every rung is in (0, 1] and the last must be 1.
	Rungs []float64
	// Eta is the keep-fraction denominator: each round keeps the best
	// ceil(n/Eta) candidates. 0 selects 2; any other value must be >= 2.
	Eta float64
}

// Validate checks the rung ladder and eta without running anything.
func (o SearchOptions) Validate() error {
	for i, rung := range o.Rungs {
		if !(rung > 0) || rung > 1 {
			return fmt.Errorf("search rung %d is %g: rungs must be in (0, 1]", i, rung)
		}
		if i > 0 && rung <= o.Rungs[i-1] {
			return fmt.Errorf("search rungs must strictly ascend: rung %d (%g) <= rung %d (%g)", i, rung, i-1, o.Rungs[i-1])
		}
	}
	if n := len(o.Rungs); n > 0 && o.Rungs[n-1] != 1 {
		return fmt.Errorf("the last search rung must be 1 (full fidelity), got %g", o.Rungs[n-1])
	}
	if o.Eta != 0 && !(o.Eta >= 2) {
		return fmt.Errorf("search eta %g out of range: want 0 (default) or >= 2", o.Eta)
	}
	return nil
}

// SearchRound is one completed search round: the specs it ran,
// positionally aligned objectives (lower is better), and how many
// candidates advanced past it.
type SearchRound struct {
	// Index is the zero-based round number.
	Index int
	// Scale is the round's fidelity rung (the specs' InstrScale).
	Scale float64
	// Specs are the candidates executed this round.
	Specs []Spec
	// Objectives are the per-spec objective values, aligned with Specs.
	Objectives []float64
	// Survivors counts candidates advanced to the next round (0 on the
	// final round).
	Survivors int
	// Pruned counts candidates discarded after this round.
	Pruned int
}

// Best returns the index of the round's lowest objective; ties break
// toward the earliest index, which keeps searches deterministic.
func (r SearchRound) Best() int {
	best := 0
	for i := 1; i < len(r.Objectives); i++ {
		if r.Objectives[i] < r.Objectives[best] {
			best = i
		}
	}
	return best
}

// SearchResult is one completed adaptive search.
type SearchResult struct {
	// Rounds are the completed rounds in execution order; the last one
	// ran at full fidelity.
	Rounds []SearchRound
	// Best is the winning candidate, at full fidelity.
	Best Spec
	// BestObjective is Best's objective in the final round.
	BestObjective float64
	// TotalRuns counts specs executed across all rounds (baselines not
	// included).
	TotalRuns int
	// FullFidelityRuns counts specs executed at InstrScale 1.
	FullFidelityRuns int
}

// Search finds the candidate with the lowest objective by successive
// halving over a fidelity ladder: round r runs the surviving candidates
// at Rungs[r] (their InstrScale is overwritten) and the best
// ceil(n/Eta) advance. When one candidate is left before the ladder
// ends, it goes straight to a full-fidelity round. The full-fidelity
// round's best candidate wins. Each round is one Sweep, so rounds use
// the batch backend, the run cache and the per-spec events unchanged.
// Candidate order breaks ties, so the same candidates on the same
// engine configuration give the same rounds. Options are validated
// before any simulation; the error of any round's sweep aborts the
// search.
func (e *Engine) Search(ctx context.Context, candidates []Spec, opts SearchOptions) (*SearchResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(candidates) == 0 {
		return nil, errors.New("search: no candidates")
	}
	rungs, eta := opts.Rungs, opts.Eta
	if len(rungs) == 0 {
		rungs = defaultRungs
	}
	if eta == 0 {
		eta = 2
	}
	res := &SearchResult{}
	specs, scale := candidates, rungs[0]
	for round := 0; ; round++ {
		specs = atScale(specs, scale)
		if opts.OnEvent != nil {
			opts.OnEvent(Event{Kind: EventRoundStarted,
				Round: round, Rung: scale, Survivors: len(specs), Total: len(specs)})
		}
		start := time.Now()
		sres, err := e.Sweep(ctx, specs, Options{Normalize: opts.Normalize, OnEvent: opts.OnEvent})
		if err != nil {
			return nil, fmt.Errorf("search: round %d (rung %g): %w", round, scale, err)
		}
		rd := SearchRound{Index: round, Scale: scale, Specs: specs, Objectives: make([]float64, len(specs))}
		for i := range specs {
			if opts.Normalize {
				rd.Objectives[i] = sres.Norms[i]
			} else {
				rd.Objectives[i] = sres.Results[i].Seconds
			}
		}
		res.TotalRuns += len(specs)
		if scale == 1 {
			res.FullFidelityRuns += len(specs)
		} else {
			specs = topK(specs, rd.Objectives, int(max(1, math.Ceil(float64(len(specs))/eta))))
			rd.Survivors, rd.Pruned = len(specs), len(rd.Specs)-len(specs)
			scale = rungs[round+1]
			if len(specs) == 1 {
				scale = 1 // decided: confirm the sole survivor at full fidelity
			}
		}
		res.Rounds = append(res.Rounds, rd)
		e.search.roundDone(rd.Scale, time.Since(start), len(rd.Specs), rd.Pruned)
		if opts.OnEvent != nil {
			opts.OnEvent(Event{Kind: EventRoundFinished,
				Round: round, Rung: rd.Scale, Survivors: rd.Survivors, Pruned: rd.Pruned, Total: len(rd.Specs)})
		}
		if rd.Scale == 1 {
			best := rd.Best()
			res.Best, res.BestObjective = rd.Specs[best], rd.Objectives[best]
			return res, nil
		}
	}
}

// topK selects the k lowest-objective specs, preserving their relative
// order (stable selection, earlier index wins ties).
func topK(specs []Spec, objectives []float64, k int) []Spec {
	if k >= len(specs) {
		return specs
	}
	// Selection by rank: an index is kept when fewer than k others beat
	// it, where "beats" is (lower objective) or (equal and earlier).
	out := make([]Spec, 0, k)
	for i := range specs {
		rank := 0
		for j := range specs {
			if objectives[j] < objectives[i] || (objectives[j] == objectives[i] && j < i) {
				rank++
			}
		}
		if rank < k {
			out = append(out, specs[i])
		}
	}
	return out
}

// atScale copies the specs with their fidelity rung set.
func atScale(specs []Spec, scale float64) []Spec {
	out := make([]Spec, len(specs))
	for i, s := range specs {
		s.InstrScale = scale
		out[i] = s
	}
	return out
}

// Table renders the search deterministically: one row per round (rung,
// candidate count, pruned, round best and its objective) plus a final
// row naming the winner.
func (r *SearchResult) Table(caption string) *report.Table {
	t := report.NewTable(caption, "round", "rung", "candidates", "pruned", "best", "objective")
	for _, rd := range r.Rounds {
		best := rd.Best()
		t.AddRow(
			fmt.Sprintf("%d", rd.Index),
			fmt.Sprintf("%g", rd.Scale),
			fmt.Sprintf("%d", len(rd.Specs)),
			fmt.Sprintf("%d", rd.Pruned),
			rd.Specs[best].String(),
			report.FormatFloat(rd.Objectives[best]),
		)
	}
	t.AddRow("winner", "1", "", "", r.Best.String(), report.FormatFloat(r.BestObjective))
	return t
}
