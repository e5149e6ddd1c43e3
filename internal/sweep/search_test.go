package sweep

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"dramtherm/internal/core"
	"dramtherm/internal/obs"
	"dramtherm/internal/sim"
)

// synthEngine backs the engine with a synthetic objective: every
// (mix, policy) pair gets a stable pseudo-random runtime derived from
// seed, independent of the fidelity rung — a perfectly monotone
// landscape where cheap rungs rank exactly like full fidelity. The
// returned counter tracks full-fidelity executions.
func synthEngine(t *testing.T, seed int64) (*Engine, *atomic.Int64) {
	t.Helper()
	eng := NewEngine(core.NewSystem(core.DefaultConfig()), 4)
	fullFid := new(atomic.Int64)
	eng.SetRunFunc(func(ctx context.Context, rs core.RunSpec) (sim.MEMSpotResult, error) {
		if rs.InstrScale == 0 || rs.InstrScale == 1 {
			fullFid.Add(1)
		}
		return sim.MEMSpotResult{Seconds: synthSeconds(seed, rs), Completed: 4}, nil
	})
	t.Cleanup(func() { eng.Close() })
	return eng, fullFid
}

func synthSeconds(seed int64, rs core.RunSpec) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s", seed, rs.Mix.Name, rs.Policy.Name())
	return 100 + float64(h.Sum64()%1000)
}

// randomCandidates draws 2..n distinct (mix, policy) candidates.
func randomCandidates(rng *rand.Rand, n int) []Spec {
	mixes := []string{"W1", "W2", "W3", "W4", "W5", "W6", "W7", "W8"}
	policies := []string{"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS", "DTM-COMB"}
	all := Grid{Mixes: mixes, Policies: policies}.Expand()
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	k := 2 + rng.Intn(n-1)
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// trueBest returns the candidate the synthetic landscape actually
// favors, by exhaustive objective evaluation.
func trueBest(t *testing.T, eng *Engine, seed int64, candidates []Spec) Spec {
	t.Helper()
	best, bestObj := 0, 0.0
	for i, sp := range candidates {
		rs, err := eng.Resolve(sp)
		if err != nil {
			t.Fatal(err)
		}
		obj := synthSeconds(seed, rs)
		if i == 0 || obj < bestObj {
			best, bestObj = i, obj
		}
	}
	return candidates[best]
}

// TestHalvingCheaperThanGrid: for every candidate set larger than one,
// successive halving reaches full fidelity with strictly fewer
// simulations than the exhaustive grid would need.
func TestHalvingCheaperThanGrid(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		candidates := randomCandidates(rng, 24)
		eng, fullFid := synthEngine(t, seed)
		res, err := eng.Search(context.Background(), candidates, SearchOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.FullFidelityRuns >= len(candidates) {
			t.Errorf("seed %d: %d full-fidelity runs for %d candidates, want strictly fewer",
				seed, res.FullFidelityRuns, len(candidates))
		}
		if got := int(fullFid.Load()); got != res.FullFidelityRuns {
			t.Errorf("seed %d: engine executed %d full-fidelity sims, result reports %d",
				seed, got, res.FullFidelityRuns)
		}
	}
}

// TestSearchKeepsOptimum: on a monotone landscape (cheap rungs rank
// like full fidelity) halving never prunes the true optimum, whatever
// the ladder and keep fraction.
func TestSearchKeepsOptimum(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		candidates := randomCandidates(rng, 24)
		for _, opts := range []SearchOptions{
			{},
			{Rungs: []float64{0.1, 0.3, 0.6, 1}, Eta: 3},
		} {
			eng, _ := synthEngine(t, seed)
			want := trueBest(t, eng, seed, candidates)
			res, err := eng.Search(context.Background(), candidates, opts)
			if err != nil {
				t.Fatalf("seed %d %+v: %v", seed, opts, err)
			}
			if res.Best.String() != want.String() {
				t.Errorf("seed %d %+v: best %s, exhaustive optimum %s",
					seed, opts, res.Best, want)
			}
		}
	}
}

// TestSearchDeterministic: the same seed (same candidates, same
// landscape) renders byte-identical result tables on fresh engines,
// concurrency notwithstanding.
func TestSearchDeterministic(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		candidates := randomCandidates(rng, 24)
		run := func() string {
			eng, _ := synthEngine(t, seed)
			res, err := eng.Search(context.Background(), candidates, SearchOptions{})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return res.Table("t").String()
		}
		if a, b := run(), run(); a != b {
			t.Errorf("seed %d: nondeterministic tables:\n%s\nvs\n%s", seed, a, b)
		}
	}
}

// TestSearchEvents: round boundaries are observable — one started and
// one finished event per round, with monotone round indices, the
// survivor and pruned counts of the result, and the final round at
// full fidelity.
func TestSearchEvents(t *testing.T) {
	eng, _ := synthEngine(t, 1)
	candidates := randomCandidates(rand.New(rand.NewSource(1)), 16)
	var starts, finishes []Event
	res, err := eng.Search(context.Background(), candidates, SearchOptions{
		OnEvent: func(ev Event) {
			switch ev.Kind {
			case EventRoundStarted:
				starts = append(starts, ev)
			case EventRoundFinished:
				finishes = append(finishes, ev)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) < 2 {
		t.Fatalf("%d rounds over %d candidates, want a pruning round first", len(res.Rounds), len(candidates))
	}
	if len(starts) != len(res.Rounds) || len(finishes) != len(res.Rounds) {
		t.Fatalf("events = %d started / %d finished, want %d each",
			len(starts), len(finishes), len(res.Rounds))
	}
	for i, rd := range res.Rounds {
		if starts[i].Round != i || finishes[i].Round != i {
			t.Errorf("event %d carries rounds %d/%d", i, starts[i].Round, finishes[i].Round)
		}
		if starts[i].Rung != rd.Scale {
			t.Errorf("round %d started with rung %g, executed %g", i, starts[i].Rung, rd.Scale)
		}
		if finishes[i].Survivors != rd.Survivors || finishes[i].Pruned != rd.Pruned {
			t.Errorf("round %d finished with %d/%d survivors/pruned, result has %d/%d",
				i, finishes[i].Survivors, finishes[i].Pruned, rd.Survivors, rd.Pruned)
		}
	}
	if last := res.Rounds[len(res.Rounds)-1]; last.Scale != 1 {
		t.Errorf("final round at rung %g, want full fidelity", last.Scale)
	}
}

// TestSearchMetrics: Engine.Instrument registers the search families,
// and a search counts its rounds and full-fidelity runs into them.
func TestSearchMetrics(t *testing.T) {
	eng, _ := synthEngine(t, 1)
	reg := obs.NewRegistry()
	eng.Instrument(reg)
	res, err := eng.Search(context.Background(), randomCandidates(rand.New(rand.NewSource(3)), 16), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("dramtherm_search_rounds_total %d\n", len(res.Rounds)),
		fmt.Sprintf("dramtherm_search_full_fidelity_runs_total %d\n", res.FullFidelityRuns),
		"dramtherm_search_specs_pruned_total ",
		`dramtherm_search_round_seconds_count{rung="1"} 1` + "\n",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, text.String())
		}
	}
}

// TestSearchValidation: bad rungs or eta fail before any simulation.
func TestSearchValidation(t *testing.T) {
	eng, fullFid := synthEngine(t, 1)
	var runs atomic.Int64
	candidates := randomCandidates(rand.New(rand.NewSource(2)), 8)
	for _, tc := range []struct {
		opts SearchOptions
		want string
	}{
		{SearchOptions{Rungs: []float64{0, 1}}, "rungs must be in (0, 1]"},
		{SearchOptions{Rungs: []float64{0.5, 0.5, 1}}, "strictly ascend"},
		{SearchOptions{Rungs: []float64{0.25, 0.5}}, "last search rung must be 1"},
		{SearchOptions{Eta: 1}, "eta"},
		{SearchOptions{Eta: -2}, "eta"},
	} {
		_, err := eng.Search(context.Background(), candidates, SearchOptions{
			Rungs: tc.opts.Rungs, Eta: tc.opts.Eta,
			OnEvent: func(Event) { runs.Add(1) },
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want it to mention %q", tc.opts, err, tc.want)
		}
	}
	if n := runs.Load() + fullFid.Load(); n != 0 {
		t.Errorf("rejected searches emitted or ran %d times, want 0", n)
	}
}

// TestSearchCancellation: a dead context aborts the search with the
// context's error rather than hanging or returning a partial result.
func TestSearchCancellation(t *testing.T) {
	eng, _ := synthEngine(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	candidates := randomCandidates(rand.New(rand.NewSource(2)), 8)
	if _, err := eng.Search(ctx, candidates, SearchOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSearchNoCandidates: an empty candidate list is an error, not a
// panic or an empty success.
func TestSearchNoCandidates(t *testing.T) {
	eng, _ := synthEngine(t, 1)
	if _, err := eng.Search(context.Background(), nil, SearchOptions{}); err == nil {
		t.Fatal("empty search returned nil error")
	}
}

// TestCancellationMidRound: cancelling while a round's sweep is in
// flight must abort the search with the round's context error —
// TestSearchCancellation only covers a pre-cancelled context.
func TestCancellationMidRound(t *testing.T) {
	eng := NewEngine(core.NewSystem(core.DefaultConfig()), 2)
	t.Cleanup(func() { eng.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	var runs atomic.Int64
	eng.SetRunFunc(func(rctx context.Context, rs core.RunSpec) (sim.MEMSpotResult, error) {
		if runs.Add(1) == 2 {
			// Second run of the round: pull the rug mid-sweep.
			cancel()
		}
		<-rctx.Done()
		return sim.MEMSpotResult{}, rctx.Err()
	})
	candidates := Grid{Mixes: []string{"W1"}, Policies: []string{"DTM-TS", "DTM-BW"}}.Expand()
	_, err := eng.Search(ctx, candidates, SearchOptions{Rungs: []float64{1}})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "round 0") {
		t.Fatalf("err %v does not name the aborted round", err)
	}
}

// TestCancellationBetweenRounds: a context cancelled after round 0
// completes must stop round 1, and the error names it. Round 1 runs the
// survivors at a new rung, so its specs are not cached and each run
// consults the context.
func TestCancellationBetweenRounds(t *testing.T) {
	eng := NewEngine(core.NewSystem(core.DefaultConfig()), 2)
	t.Cleanup(func() { eng.Close() })
	eng.SetRunFunc(func(rctx context.Context, rs core.RunSpec) (sim.MEMSpotResult, error) {
		if err := rctx.Err(); err != nil {
			return sim.MEMSpotResult{}, err
		}
		return sim.MEMSpotResult{Seconds: 100, Completed: 4}, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	candidates := Grid{Mixes: []string{"W1", "W2"}, Policies: []string{"DTM-ACG", "DTM-CDVFS"}}.Expand()
	done := false
	_, err := eng.Search(ctx, candidates, SearchOptions{Rungs: []float64{0.25, 1}, OnEvent: func(ev Event) {
		if ev.Kind == EventRoundFinished && !done {
			done = true
			cancel()
		}
	}})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "round 1") {
		t.Fatalf("err %v does not name round 1", err)
	}
}
