// searchdtm demonstrates adaptive search (successive halving over
// cheap fidelity rungs) end to end against an exhaustive grid sweep of
// the same candidates. It checks that the search finds the same best
// DTM configuration as the grid, and that two independent searches
// render byte-identical report tables. It prints the wall time of both
// but asserts nothing about it. It also drives the HTTP surface: an
// embedded dramthermd runs the same search as an async job whose SSE
// stream carries round-boundary events.
//
// What search buys is wall-clock time on warm level-1 traces. Over the
// 32 Chapter 4 candidates at full scale (W1–W8 × DTM-TS/BW/ACG/CDVFS,
// normalized, 2 workers, 2-CPU host, medians of 5 paired runs), search
// took 0.65 s against the grid's 1.05 s on warm traces, about 1.6×
// faster, and 67.4 s against 62.3 s on cold traces, about 8% slower.
// A rung shortens only the level-2 simulation; the level-1 builds that
// dominate a cold run cost the same at every rung. Each run here starts
// on cold traces at demo scale, so its timings do not stand in for the
// full-scale ones above.
//
// Usage:
//
//	go run ./examples/searchdtm
//	go run ./examples/searchdtm -instrscale 0.02
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"dramtherm"
	"dramtherm/internal/core"
	"dramtherm/internal/httpapi"
	"dramtherm/internal/sweep"
)

func main() {
	var (
		workers = flag.Int("workers", 0, "simulation worker pool width (0 = GOMAXPROCS)")
		full    = flag.Bool("full", false, "full-scale batches (default is a fast demo scale)")
		scale   = flag.Float64("instrscale", 0, "override the application length scale factor")
	)
	flag.Parse()

	cfg := dramtherm.DefaultConfig()
	if !*full {
		// Demo scale, as in examples/sweepgrid: one batch round, short
		// applications, lowered limits so the DTM policies engage.
		cfg.Replicas = 1
		cfg.InstrScale = 0.05
		cfg.Limits = dramtherm.ThermalLimits{AMBTDP: 103.5, DRAMTDP: 85, AMBTRP: 102.5, DRAMTRP: 84}
	}
	if *scale > 0 {
		cfg.InstrScale = *scale
	}

	candidates := dramtherm.Grid{
		Mixes:    []string{"W1", "W2"},
		Policies: []string{"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"},
	}.Expand()

	// Exhaustive baseline: sweep every candidate at full fidelity.
	start := time.Now()
	gridBest, gridObj, err := exhaustive(cfg, *workers, candidates)
	if err != nil {
		log.Fatalf("exhaustive sweep: %v", err)
	}
	gridWall := time.Since(start)
	fmt.Printf("exhaustive grid: %d full-fidelity simulations in %.1fs, best %s (%.3f)\n\n",
		len(candidates), gridWall.Seconds(), gridBest, gridObj)

	// The same space, searched adaptively — twice, on cold engines, to
	// prove the rounds and tables are deterministic. Both runs must
	// succeed before their tables are compared: diffing against a
	// half-finished second search would report nondeterminism where the
	// real story is a failed run.
	start = time.Now()
	res, err := search(cfg, *workers, candidates)
	if err != nil {
		log.Fatalf("adaptive search: %v", err)
	}
	searchWall := time.Since(start)
	again, err := search(cfg, *workers, candidates)
	if err != nil {
		log.Fatalf("adaptive search (determinism re-run): %v", err)
	}
	fmt.Print(res.Table("adaptive search").String())
	fmt.Printf("\nadaptive search in %.1fs (grid %.1fs, both on cold traces): best %s (%.3f)\n",
		searchWall.Seconds(), gridWall.Seconds(), res.Best, res.BestObjective)

	if t1, t2 := res.Table("t").String(), again.Table("t").String(); t1 != t2 {
		log.Fatalf("nondeterministic search: two cold runs rendered different tables:\n%s\nvs\n%s", t1, t2)
	}
	fmt.Println("determinism: two cold searches rendered byte-identical tables")
	// Compare canonical names: the searched winner carries an explicit
	// full-fidelity InstrScale of 1 where the grid spec left it 0, and
	// the two spell the same configuration.
	if res.Best.String() != gridBest.String() {
		log.Fatalf("search best %s != exhaustive best %s", res.Best, gridBest)
	}
	fmt.Println("fidelity: search winner matches the exhaustive winner")
	fmt.Println()

	// The HTTP surface: the same search as an async job on an embedded
	// server, with round boundaries visible on the SSE stream.
	if err := serverSearch(cfg); err != nil {
		log.Fatal(err)
	}
}

func exhaustive(cfg dramtherm.Config, workers int, specs []dramtherm.Spec) (dramtherm.Spec, float64, error) {
	eng, err := dramtherm.NewEngine(cfg, dramtherm.WithWorkers(workers))
	if err != nil {
		return dramtherm.Spec{}, 0, fmt.Errorf("engine: %w", err)
	}
	defer eng.Close()
	res, err := eng.Sweep(context.Background(), specs, dramtherm.SweepOptions{Normalize: true})
	if err != nil {
		return dramtherm.Spec{}, 0, err
	}
	best := 0
	for i := range specs {
		if res.Norms[i] < res.Norms[best] {
			best = i
		}
	}
	return specs[best], res.Norms[best], nil
}

func search(cfg dramtherm.Config, workers int, candidates []dramtherm.Spec) (*dramtherm.SearchResult, error) {
	eng, err := dramtherm.NewEngine(cfg, dramtherm.WithWorkers(workers))
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	defer eng.Close()
	return eng.Search(context.Background(), candidates, dramtherm.SearchOptions{Normalize: true})
}

// serverSearch submits the search as an async job against an embedded
// httpapi server and follows its SSE stream, expecting round-boundary
// events between the per-spec ones.
func serverSearch(cfg dramtherm.Config) error {
	eng := sweep.NewEngine(core.NewSystem(cfg), 0)
	api := httpapi.New(context.Background(), eng, httpapi.Config{})
	defer api.Close()
	ts := httptest.NewServer(api)
	defer ts.Close()
	fmt.Printf("embedded dramthermd at %s\n", ts.URL)

	body, err := json.Marshal(map[string]any{
		"grid": sweep.Grid{
			Mixes:    []string{"W1", "W2"},
			Policies: []string{"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"},
		},
		"normalize": true,
		"search":    map[string]any{},
	})
	if err != nil {
		return err
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps?async=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var submitted struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&submitted)
	resp.Body.Close()
	if err != nil || submitted.ID == "" {
		return fmt.Errorf("submit failed (%s): %v", resp.Status, err)
	}
	fmt.Printf("submitted search job %s\n", submitted.ID)

	stream, err := http.Get(ts.URL + "/v1/runs/" + submitted.ID + "/events")
	if err != nil {
		return err
	}
	defer stream.Body.Close()
	rounds := 0
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev sweep.JobEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			return fmt.Errorf("bad event %q: %w", line, err)
		}
		switch ev.Kind {
		case string(sweep.EventRoundStarted):
			fmt.Printf("  round %d started: rung %g, %d candidates\n", ev.Round, ev.Rung, ev.Total)
		case string(sweep.EventRoundFinished):
			fmt.Printf("  round %d finished: %d survive, %d pruned\n", ev.Round, ev.Survivors, ev.Pruned)
			rounds++
		case "done", "error", "cancelled":
			if ev.Kind != "done" {
				return fmt.Errorf("job ended %s", ev.Kind)
			}
			if rounds < 2 {
				return fmt.Errorf("only %d round_finished events on the SSE stream, want >= 2", rounds)
			}
			fmt.Printf("job done: %d rounds streamed over SSE\n", rounds)
			return nil
		}
	}
	return fmt.Errorf("event stream ended without a terminal event: %w", sc.Err())
}
