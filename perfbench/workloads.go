package main

import (
	"context"
	"fmt"

	"dramtherm/internal/core"
	"dramtherm/internal/exp"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/platform"
	"dramtherm/internal/sim"
	"dramtherm/internal/sweep"
	"dramtherm/internal/trace"
	"dramtherm/internal/workload"
)

// config is the system configuration of the sweep workloads: the exp
// drivers' quick-mode configuration (two replicas per application, full
// application lengths), with the level-1 seed from the workload.
func (b *bench) config(seed int64) core.Config {
	cfg := exp.RunnerConfig(true)
	cfg.Seed = seed
	cfg.InstrScale = b.opts.scale
	return cfg
}

// coldSpecs is what memtherm -quick sweeps for Chapter 4: the two quick
// mixes under the baseline and the four single-mechanism policies.
func coldSpecs() []sweep.Spec {
	return sweep.Grid{
		Mixes:    []string{"W1", "W2"},
		Policies: []string{"No-limit", "DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"},
	}.Expand()
}

// gridSpecs is the policy × limits sensitivity grid of the prefix
// sharing acceptance test: W1 under four policies at eight TDP points.
func gridSpecs() []sweep.Spec {
	var lims []fbconfig.ThermalLimits
	for _, tdp := range []float64{110, 109.5, 109, 108.5, 108, 107.5, 103.5, 103} {
		lims = append(lims, fbconfig.ThermalLimits{
			AMBTDP: fbconfig.Celsius(tdp), DRAMTDP: 85,
			AMBTRP: fbconfig.Celsius(tdp - 1), DRAMTRP: 84,
		})
	}
	return sweep.Grid{
		Mixes:    []string{"W1"},
		Policies: []string{"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"},
		Limits:   lims,
	}.Expand()
}

// sweep runs specs through eng, counting each spec as one operation,
// and returns the results (nil if the sweep failed) and how many specs
// completed.
func (b *bench) sweep(ctx context.Context, eng *sweep.Engine, specs []sweep.Spec) ([]sim.MEMSpotResult, int) {
	done := 0
	// Finish and error events are delivered one at a time.
	res, err := eng.Sweep(ctx, specs, sweep.Options{OnEvent: func(ev sweep.Event) {
		switch ev.Kind {
		case sweep.EventFinished:
			done++
			b.op(nil, "")
		case sweep.EventError:
			b.op(ev.Err, "run "+ev.Spec.String())
		}
	}})
	if err != nil {
		return nil, done
	}
	for i, r := range res.Results {
		b.check(r.Seconds > 0 && r.Completed > 0 && !r.TimedOut,
			"%s: degenerate result (%.1f s, %d jobs, timed out %v)", specs[i], r.Seconds, r.Completed, r.TimedOut)
	}
	return res.Results, done
}

// recordCounts stores the engine and trace-store counters of a
// measured unit of work.
func (b *bench) recordCounts(eng *sweep.Engine) {
	st := eng.Stats()
	b.layer["sweep.builds"] = float64(st.Builds)
	b.layer["sweep.hits"] = float64(st.Hits)
	b.layer["sweep.joins"] = float64(st.Waits)
	if n := st.Builds + st.Hits + st.Waits; n > 0 {
		b.layer["sweep.hit_ratio"] = float64(st.Hits) / float64(n)
	}
	if ps, ok := eng.PrefixStats(); ok {
		b.layer["prefix.leaders"] = float64(ps.Leaders)
		b.layer["prefix.full_reuse"] = float64(ps.FullReuse)
		b.layer["prefix.resumed"] = float64(ps.Resumed)
		b.layer["prefix.cold"] = float64(ps.Cold)
		b.layer["prefix.checkpoints"] = float64(ps.Checkpoints)
		b.layer["prefix.steps_simulated"] = float64(ps.StepsSimulated)
		b.layer["prefix.steps_saved"] = float64(ps.StepsSaved)
		b.layer["level2.windows"] = float64(ps.StepsSimulated)
		if n := ps.StepsSimulated + ps.StepsSaved; n > 0 {
			b.layer["prefix.saved_ratio"] = float64(ps.StepsSaved) / float64(n)
		}
	}
	if ss, ok := eng.StateStats(); ok {
		b.layer["seglog.appends"] = float64(ss.Appends)
		b.layer["seglog.bytes"] = float64(ss.Bytes)
		b.layer["seglog.append_errors"] = float64(ss.AppendErrors)
	}
}

// recordTraceCounts stores level-1 builds and trace-store hits per unit
// of work.
func (b *bench) recordTraceCounts(builds, hits float64) {
	b.layer["level1.builds"] = builds
	b.layer["trace.hits"] = hits
	if builds+hits > 0 {
		b.layer["trace.hit_ratio"] = hits / (builds + hits)
	}
}

// tracedSweep sweeps specs once through a traced backend on a fresh
// engine over sys and records the per-layer breakdown. want holds the
// untraced results the traced ones must equal.
func (b *bench) tracedSweep(sys *core.System, specs []sweep.Spec, share bool, want []sim.MEMSpotResult) {
	tr := newTracer()
	eng := sweep.NewEngine(sys, workers)
	l1 := newTimedBuilder(tr, newSimLevel1(sys.Config()))
	l1.preload(sys.Store())
	tb := newTracedBackend(tr, eng, l1, share)
	eng.SetBackend(tb)
	ctx, sp := tr.begin(context.Background(), layerSweep)
	got, _ := b.sweep(ctx, eng, specs)
	sp.end()
	a := tr.attribute(0, tr.now())
	b.check(got != nil && resultsDigest(got) == resultsDigest(want),
		"traced results differ from untraced results")
	b.check(l1.count() == int(b.layer["level1.builds"]),
		"traced unit built %d level-1 records, untraced %g", l1.count(), b.layer["level1.builds"])
	b.layer["level2.windows"] = float64(tb.level2Windows())
	b.layer["dtm.decisions"] = float64(tb.decisions.Load())
	b.recordAttribution(a, median(b.walls))
}

// coldSweep: a fresh engine over a cold trace store, prefix sharing off,
// sweeping the quick Chapter 4 grid. Almost all of its time is level-1
// trace builds.
func coldSweep(b *bench) error {
	ctx := context.Background()
	cfg := b.config(b.opts.seed)
	specs := coldSpecs()
	// Set-up is what a fresh memtherm -quick process builds before its
	// first run; it takes microseconds, so it is timed many times.
	b.timeSetup(200, func() { sweep.NewEngine(core.NewSystem(cfg), workers) })

	var digest string
	var last []sim.MEMSpotResult
	err := b.measure(1, func(i int) error {
		sys := core.NewSystem(cfg)
		eng := sweep.NewEngine(sys, workers)
		res, done := b.sweep(ctx, eng, specs)
		b.ops += done
		if res == nil {
			return nil
		}
		d := resultsDigest(res)
		if i == 0 {
			digest = d
			b.checkGolden(b.opts.seed, d)
		} else {
			b.check(d == digest, "unit %d digest %s differs from unit 0 (%s)", i, d, digest)
		}
		// Every unit starts cold, so its counters are per unit.
		builds, hits := sys.Store().Counts()
		b.check(builds > 0, "cold sweep built no level-1 records")
		b.recordTraceCounts(float64(builds), float64(hits))
		b.recordCounts(eng)
		last = res
		return nil
	})
	if err != nil {
		return err
	}
	if b.opts.trace && last != nil {
		b.tracedSweep(core.NewSystem(cfg), specs, false, last)
	}
	return nil
}

// warmGrid: set-up fills the trace store with one cold sweep of the
// policy × limits grid; the measured phase sweeps the same grid on
// fresh prefix-sharing engines over that store. Level 1 is bypassed.
func warmGrid(b *bench) error {
	ctx := context.Background()
	sys := core.NewSystem(b.config(b.opts.seed))
	specs := gridSpecs()
	var ref []sim.MEMSpotResult
	b.timeSetup(1, func() { ref, _ = b.sweep(ctx, sweep.NewEngine(sys, workers), specs) })
	if ref == nil {
		return nil
	}
	b.checkGolden(b.opts.seed, resultsDigest(ref))
	refDigests := make([]string, len(ref))
	for i, r := range ref {
		refDigests[i] = resultDigest(r)
	}

	builds0, hits0 := sys.Store().Counts()
	err := b.measure(1, func(i int) error {
		eng := sweep.NewEngine(sys, workers)
		eng.EnablePrefixSharing()
		res, done := b.sweep(ctx, eng, specs)
		b.ops += done
		for j, r := range res {
			b.check(resultDigest(r) == refDigests[j], "unit %d: shared %s differs from its cold set-up run", i, specs[j])
		}
		b.recordCounts(eng)
		return nil
	})
	if err != nil {
		return err
	}
	builds1, hits1 := sys.Store().Counts()
	b.check(builds1 == builds0, "measured phase built %d level-1 records, want 0", builds1-builds0)
	n := float64(len(b.walls))
	b.recordTraceCounts(float64(builds1-builds0)/n, float64(hits1-hits0)/n)
	if b.opts.trace {
		b.tracedSweep(sys, specs, true, ref)
	}
	return nil
}

// ch5Fig515 runs the Chapter 5 scheduling-quantum artifact in quick
// mode through its exp driver, on a fresh runner each time. Its inputs
// are fixed by the artifact.
func ch5Fig515(b *bench) error {
	d, err := exp.Lookup("fig5.15")
	if err != nil {
		return err
	}
	b.timeSetup(200, func() { exp.NewRunnerParallel(true, workers) })
	var digest string
	var last exp.Result
	err = b.measure(2, func(i int) error {
		res, err := d.Run(exp.NewRunnerParallel(true, workers))
		if !b.op(err, "fig5.15") {
			return nil
		}
		b.ops++
		dg := expDigest(res)
		if i == 0 {
			digest = dg
			b.checkGolden(defaultSeed, dg)
		} else {
			b.check(dg == digest, "unit %d digest %s differs from unit 0 (%s)", i, dg, digest)
		}
		last = res
		return nil
	})
	if err == nil && b.opts.trace && last.Figures != nil {
		b.tracedFig515(last)
	}
	return err
}

// tracedFig515 rebuilds fig5.15's platform runs from public pieces — the
// PE1950 machine, its level-1 builder behind a timing memo, and
// platform.RunPlatform with the quick-mode run settings — and checks the
// figure it yields against the driver's.
func (b *bench) tracedFig515(want exp.Result) {
	tr := newTracer()
	pe := platform.PE1950()
	l1 := newTimedBuilder(tr, platform.NewLevel1(pe, 1))
	_, root := tr.begin(nil, layerExp)
	quanta := []float64{0.005, 0.01, 0.02, 0.05, 0.1}
	var rt, ms []float64
	for _, q := range quanta {
		var sumT, sumM float64
		for _, mix := range workload.Chapter4Mixes()[:2] {
			_, sp := tr.begin(nil, layerPlatform)
			res, err := platform.RunPlatform(platform.RunConfig{
				Machine: pe, Policy: platform.ACG, Mix: mix, QuantumS: q,
				RunsPerApp: 1, SensorSeed: 7,
			}, trace.NewStore(l1))
			sp.end()
			if !b.op(err, fmt.Sprintf("platform run %s q=%g", mix.Name, q)) {
				root.end()
				return
			}
			sumT += res.Seconds
			sumM += res.L2Misses
		}
		rt = append(rt, sumT)
		ms = append(ms, sumM)
	}
	for i := range rt {
		rt[i] /= rt[len(rt)-1]
		ms[i] /= ms[len(ms)-1]
	}
	root.end()
	a := tr.attribute(0, tr.now())
	ok := len(want.Figures) == 2 && equalFloats(want.Figures[0].Series[0].Y, rt) &&
		equalFloats(want.Figures[1].Series[0].Y, ms)
	b.check(ok, "traced fig5.15 rebuild differs from the driver's figure")
	b.layer["level1.builds"] = float64(l1.count())
	b.recordAttribution(a, median(b.walls))
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
