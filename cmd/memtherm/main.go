// Command memtherm regenerates the paper's tables and figures.
//
// Usage:
//
//	memtherm -list                 # show available experiments
//	memtherm -run fig4.3           # run one experiment
//	memtherm -run all              # run everything (minutes)
//	memtherm -run fig5.6 -quick    # reduced-scale run (seconds to ~1 min)
//	memtherm -run fig4.4 -csv      # emit CSV instead of rendered tables
//	memtherm -run all -parallel 8  # run experiments concurrently; shared
//	                               # runs are deduplicated by the sweep
//	                               # engine, not repeated, and at most 8
//	                               # simulations or platform runs execute
//	                               # at once, across all figures
//	memtherm -run all -segment-dir s.d
//	                               # durable cache: results persist to the
//	                               # s.d segment log as they complete
//	memtherm -search -quick        # adaptive search for the best DTM
//	                               # policy by successive halving over
//	                               # cheap fidelity rungs
//
// Search against the full grid of the 32 Chapter 4 candidates (W1–W8 ×
// DTM-TS/BW/ACG/CDVFS, normalized, 2 workers, 2-CPU host, medians of 5
// paired runs): on warm level-1 traces it takes 0.65 s against the
// grid's 1.05 s, about 1.6× faster. On cold traces it takes 67.4 s
// against 62.3 s, about 8% slower, because a rung shortens only the
// level-2 simulation and the level-1 builds cost the same.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"dramtherm"
	"dramtherm/internal/exp"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		run      = flag.String("run", "", "experiment ID(s), comma separated, or \"all\"")
		quick    = flag.Bool("quick", false, "reduced-scale mode (smaller batches, fewer mixes)")
		csv      = flag.Bool("csv", false, "emit tables as CSV")
		parallel = flag.Int("parallel", 0, "experiments to run concurrently; also sizes the engine's one worker pool, which bounds the runs of every figure together, Chapter 4 simulations and Chapter 5 platform runs alike (0 = GOMAXPROCS)")
		segDir   = flag.String("segment-dir", "", "durable state: results append to the segment-log directory as they complete and replay on the next run")
		search   = flag.Bool("search", false, "adaptive search instead of an experiment: successive halving over cheap fidelity rungs finds the best (mix, DTM policy) of the Chapter 4 grid; faster than the grid on warm level-1 traces, slower on cold ones")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "memtherm: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	if *list {
		for _, d := range exp.All() {
			fmt.Printf("%-10s %s\n", d.ID, d.Title)
		}
		return
	}
	if *run == "" && !*search {
		flag.Usage()
		os.Exit(2)
	}

	// The facade owns the engine (and its durable state, when
	// -segment-dir is set); the experiment runner drives it. Results
	// append to the segment log as they complete, so even an aborted run
	// keeps its finished simulations.
	eng, err := dramtherm.NewEngine(exp.RunnerConfig(*quick),
		dramtherm.WithWorkers(*parallel), dramtherm.WithStateDir(*segDir))
	if err != nil {
		log.Fatalf("engine: %v", err)
	}
	defer eng.Close()

	if *search {
		if err := runSearch(eng, *quick, *csv); err != nil {
			fmt.Fprintln(os.Stderr, err)
			eng.Close() //nolint:errcheck // os.Exit skips the deferred close
			os.Exit(1)
		}
		return
	}
	runner := exp.NewRunnerFor(eng.Engine, *quick)

	ids := strings.Split(*run, ",")
	if *run == "all" {
		ids = exp.IDs()
	}
	for _, id := range ids {
		if _, err := exp.Lookup(id); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	// Run up to -parallel experiments concurrently. Their shared runs
	// (e.g. fig4.3/4.4/4.9/4.10 reuse the same simulations, fig5.6/5.8/
	// 5.9 the same platform runs) collapse in the sweep engine's
	// singleflight cache, so concurrency never duplicates work. Output streams in request order as each
	// experiment (and all before it) completes; the first failure in
	// that order aborts the run, as in serial mode.
	width := *parallel
	if width < 1 {
		width = eng.Workers()
	}
	type outcome struct {
		text string
		err  error
	}
	outs := make([]outcome, len(ids))
	ready := make([]chan struct{}, len(ids))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	sem := make(chan struct{}, width)
	for i, id := range ids {
		go func(i int, id string) {
			defer close(ready[i])
			sem <- struct{}{}
			defer func() { <-sem }()
			d, _ := exp.Lookup(id)
			start := time.Now()
			res, err := d.Run(runner)
			if err != nil {
				outs[i] = outcome{err: fmt.Errorf("%s: %w", id, err)}
				return
			}
			var b strings.Builder
			fmt.Fprintf(&b, "==== %s — %s (%.1fs)\n\n", d.ID, d.Title, time.Since(start).Seconds())
			if *csv {
				for _, t := range res.Tables {
					b.WriteString(t.CSV())
				}
				for _, f := range res.Figures {
					b.WriteString(f.DataTable().CSV())
				}
			} else {
				b.WriteString(res.String())
			}
			outs[i] = outcome{text: b.String()}
		}(i, id)
	}

	for i := range ids {
		<-ready[i]
		if outs[i].err != nil {
			fmt.Fprintln(os.Stderr, outs[i].err)
			eng.Close() //nolint:errcheck // os.Exit skips the deferred close
			os.Exit(1)
		}
		fmt.Print(outs[i].text)
	}
}

// runSearch finds the best Chapter 4 DTM policy adaptively: every
// (mix, policy) candidate is measured at cheap fidelity rungs first,
// and only the survivors pay for full-length simulation.
func runSearch(eng *dramtherm.Engine, quick, csv bool) error {
	mixes := []string{"W1", "W2", "W3", "W4", "W5", "W6", "W7", "W8"}
	if quick {
		mixes = mixes[:2]
	}
	candidates := dramtherm.Grid{
		Mixes:    mixes,
		Policies: []string{"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"},
	}.Expand()

	start := time.Now()
	res, err := eng.Search(context.Background(), candidates, dramtherm.SearchOptions{Normalize: true})
	if err != nil {
		return err
	}
	tab := res.Table(fmt.Sprintf("adaptive halving search over %d candidates, %.1fs wall",
		len(candidates), time.Since(start).Seconds()))
	if csv {
		fmt.Print(tab.CSV())
	} else {
		fmt.Print(tab.String())
	}
	fmt.Printf("best %s (normalized runtime %.3f); %d of %d candidates reached full fidelity\n",
		res.Best, res.BestObjective, res.FullFidelityRuns, len(candidates))
	return nil
}
