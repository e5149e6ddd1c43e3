// Chapter 5 figures: the measurement-style study on the emulated PE1950
// and SR1500AL testbeds. Each driver plans its figure as one list of
// machine specs and runs it with one engine Sweep, as the Chapter 4
// drivers do. Where the plan allows, neighbouring specs differ in mix,
// so runs that start together rarely wait on each other's level-1
// builds.

package exp

import (
	"context"
	"fmt"

	"dramtherm/internal/platform"
	"dramtherm/internal/report"
	"dramtherm/internal/sim"
	"dramtherm/internal/stats"
	"dramtherm/internal/sweep"
	"dramtherm/internal/workload"
)

// The two testbeds, by sweep.Spec machine name.
const pe, sr = "PE1950", "SR1500AL"

func init() {
	register("fig5.4", "AMB temperature, first 500s, homogeneous workloads (SR1500AL)", fig54)
	register("fig5.5", "Average AMB temperature per benchmark, no DTM (PE1950)", fig55)
	register("fig5.6", "Normalized running time of SPEC CPU2000 workloads", fig56)
	register("fig5.7", "Normalized running time of SPEC CPU2006 workloads (PE1950)", fig57)
	register("fig5.8", "Normalized number of L2 cache misses", fig58)
	register("fig5.9", "Measured memory inlet temperature (SR1500AL)", fig59)
	register("fig5.10", "CPU power consumption (SR1500AL)", fig510)
	register("fig5.11", "Normalized CPU+DRAM energy (SR1500AL)", fig511)
	register("fig5.12", "Normalized running time at 26C ambient (SR1500AL)", fig512)
	register("fig5.13", "DTM-ACG vs DTM-BW at 3.0/2.0 GHz (SR1500AL)", fig513)
	register("fig5.14", "Normalized running time vs AMB TDP (PE1950)", fig514)
	register("fig5.15", "Runtime and L2 misses vs scheduling quantum (PE1950)", fig515)
}

// homogeneous names the 4-copy mix of one program.
func homogeneous(name string) string { return name + "x4" }

// ch5Policies is the Fig. 5.6+ policy list.
var ch5Policies = []platform.PolicyKind{platform.BW, platform.ACG, platform.CDVFS, platform.COMB}

// pfSpec is policy k's run of mix on machine at the runner's batch
// depth (1 in quick mode, else 3).
func (r *Runner) pfSpec(machine string, k platform.PolicyKind, mix string) sweep.Spec {
	n := 3
	if r.Quick {
		n = 1
	}
	return sweep.Spec{Machine: machine, Mix: mix, Policy: k.String(), RunsPerApp: n}
}

func fig54(r *Runner) (Result, error) {
	out := Result{ID: "fig5.4"}
	apps := []string{"swim", "mgrid", "galgel", "apsi", "vpr"}
	if r.Quick {
		apps = apps[:2]
	}
	fig := report.NewFigure("Fig 5.4: AMB temperature, first 500 s (SR1500AL, no DTM below safety cap)",
		"time (s)", "AMB temperature (C)")
	specs := make([]sweep.Spec, len(apps))
	for i, a := range apps {
		specs[i] = r.pfSpec(sr, platform.NoLimit, homogeneous(a))
		specs[i].RunsPerApp, specs[i].MaxSeconds = 5, 3000
	}
	sw, err := r.Eng.Sweep(context.TODO(), specs, sweep.Options{})
	if err != nil {
		return out, err
	}
	for i, a := range apps {
		tr := sw.Results[i].AMBTrace
		if len(tr) > 500 {
			tr = tr[:500]
		}
		fig.Add(a, tr)
	}
	out.Figures = append(out.Figures, fig)
	return out, nil
}

func fig55(r *Runner) (Result, error) {
	out := Result{ID: "fig5.5"}
	progs := workload.Suite2000()
	if r.Quick {
		progs = progs[:6]
	}
	t := report.NewTable("Fig 5.5: average AMB temperature, homogeneous workloads on PE1950 (no DTM)",
		"benchmark", "avg AMB (C)", "max AMB (C)")
	specs := make([]sweep.Spec, len(progs))
	for i, p := range progs {
		specs[i] = r.pfSpec(pe, platform.NoLimit, homogeneous(p.Name))
		specs[i].RunsPerApp, specs[i].MaxSeconds = 1, 5000
	}
	sw, err := r.Eng.Sweep(context.TODO(), specs, sweep.Options{})
	if err != nil {
		return out, err
	}
	var avgs []float64
	for i, p := range progs {
		res := sw.Results[i]
		// The paper excludes the top 0.5% of samples to remove sensor
		// spikes (§5.4.1).
		trimmed := stats.TrimTop(res.AMBTrace, 0.005)
		avg := stats.Mean(trimmed)
		t.AddRowf(p.Name, avg, res.MaxAMB)
		avgs = append(avgs, avg)
	}
	fig := report.NewFigure("Fig 5.5 (chart)", "benchmark index", "avg AMB (C)")
	fig.Add("avg AMB", avgs)
	out.Tables = append(out.Tables, t)
	out.Figures = append(out.Figures, fig)
	return out, nil
}

// pfFigure is experiment id's one figure: it runs No-limit and every
// ch5Policies policy on each mix on machine (variant, when set, adjusts
// every spec) and plots one series per policy, value(run, the mix's
// No-limit run, the mix's DTM-BW run) over the mixes, then their mean
// when mean is set.
func (r *Runner) pfFigure(id, machine, title, ylabel string, mixes []string, variant func(*sweep.Spec),
	mean bool, value func(res, base, bw sim.MEMSpotResult) float64) (Result, error) {
	// Plan policy-major, so neighbouring runs in the batch differ in mix;
	// run(p, i) is policy p (0 = No-limit, then ch5Policies, whose first
	// is DTM-BW) on mixes[i].
	var specs []sweep.Spec
	for _, k := range append([]platform.PolicyKind{platform.NoLimit}, ch5Policies...) {
		for _, mix := range mixes {
			spec := r.pfSpec(machine, k, mix)
			if variant != nil {
				variant(&spec)
			}
			specs = append(specs, spec)
		}
	}
	sw, err := r.Eng.Sweep(context.TODO(), specs, sweep.Options{})
	if err != nil {
		return Result{ID: id}, err
	}
	run := func(p, i int) sim.MEMSpotResult { return sw.Results[p*len(mixes)+i] }
	fig := report.NewFigure(title, "workload", ylabel)
	for p, k := range ch5Policies {
		var ys []float64
		for i := range mixes {
			ys = append(ys, value(run(p+1, i), run(0, i), run(1, i)))
		}
		if mean {
			ys = append(ys, stats.Mean(ys))
		}
		fig.Add(k.String(), ys)
	}
	return Result{ID: id, Figures: []*report.Figure{fig}}, nil
}

// runtimeRatio is a run's runtime normalized to its No-limit run's.
func runtimeRatio(res, base, _ sim.MEMSpotResult) float64 { return res.Seconds / base.Seconds }

// mixNames returns the SPEC CPU2000 mixes of Chapter 5 (the Chapter 4
// ones), truncated in quick mode.
func (r *Runner) mixNames() []string {
	var out []string
	for _, m := range r.mixes() {
		out = append(out, m.Name)
	}
	return out
}

// perMachine is experiment id: pfFigure on each testbed in turn, over
// the SPEC CPU2000 mixes, titled by the testbed's name.
func (r *Runner) perMachine(id, title, ylabel string, value func(res, base, bw sim.MEMSpotResult) float64) (Result, error) {
	out := Result{ID: id}
	for _, m := range []string{pe, sr} {
		res, err := r.pfFigure(id, m, fmt.Sprintf(title, m), ylabel, r.mixNames(), nil, true, value)
		if err != nil {
			return out, err
		}
		out.Figures = append(out.Figures, res.Figures...)
	}
	return out, nil
}

func fig56(r *Runner) (Result, error) {
	return r.perMachine("fig5.6", "Fig 5.6 (%s): normalized running time, SPEC CPU2000", "runtime / No-limit", runtimeRatio)
}

func fig57(r *Runner) (Result, error) {
	runs := 1 // CPU2006 runs are long; the paper uses 5
	if !r.Quick {
		runs = 2
	}
	return r.pfFigure("fig5.7", pe, "Fig 5.7 (PE1950): normalized running time, SPEC CPU2006",
		"runtime / No-limit", []string{"W11", "W12"}, func(c *sweep.Spec) { c.RunsPerApp = runs }, false, runtimeRatio)
}

func fig58(r *Runner) (Result, error) {
	return r.perMachine("fig5.8", "Fig 5.8 (%s): normalized L2 cache misses", "L2 misses / No-limit",
		func(res, base, _ sim.MEMSpotResult) float64 { return res.L2Misses / base.L2Misses })
}

func fig59(r *Runner) (Result, error) {
	return r.pfFigure("fig5.9", sr, "Fig 5.9 (SR1500AL): measured memory inlet temperature",
		"inlet (C)", r.mixNames(), nil, true,
		func(res, _, _ sim.MEMSpotResult) float64 { return res.AvgInletC })
}

func fig510(r *Runner) (Result, error) {
	return r.pfFigure("fig5.10", sr, "Fig 5.10 (SR1500AL): CPU power, normalized to DTM-BW",
		"power / DTM-BW", r.mixNames(), nil, true,
		func(res, _, bw sim.MEMSpotResult) float64 { return res.AvgCPUWatt / bw.AvgCPUWatt })
}

func fig511(r *Runner) (Result, error) {
	return r.pfFigure("fig5.11", sr, "Fig 5.11 (SR1500AL): CPU+DRAM energy, normalized to DTM-BW",
		"energy / DTM-BW", r.mixNames(), nil, true,
		func(res, _, bw sim.MEMSpotResult) float64 { return res.TotalEnergyJ() / bw.TotalEnergyJ() })
}

func fig512(r *Runner) (Result, error) {
	return r.pfFigure("fig5.12", sr, "Fig 5.12 (SR1500AL): normalized runtime at 26C ambient, TDP 90C",
		"runtime / No-limit", r.mixNames(), func(c *sweep.Spec) { c.Ambient, c.Limits.AMBTDP = 26, 90 }, true, runtimeRatio)
}

func fig513(r *Runner) (Result, error) {
	out := Result{ID: "fig5.13"}
	fig := report.NewFigure("Fig 5.13 (SR1500AL): DTM-ACG vs DTM-BW at 3.0 and 2.0 GHz",
		"workload", "runtime / No-limit(3GHz)")
	variants := []struct {
		label string
		force int
	}{{"3.0GHz", 0}, {"2.0GHz", 3}}
	policies := []platform.PolicyKind{platform.BW, platform.ACG}
	mixes := r.mixNames()
	// The batch is the baselines, then every variant × policy × mix in
	// loop order, mix innermost.
	var specs []sweep.Spec
	for _, mix := range mixes {
		specs = append(specs, r.pfSpec(sr, platform.NoLimit, mix))
	}
	for _, v := range variants {
		for _, k := range policies {
			for _, mix := range mixes {
				spec := r.pfSpec(sr, k, mix)
				spec.ForceFreq = v.force
				specs = append(specs, spec)
			}
		}
	}
	sw, err := r.Eng.Sweep(context.TODO(), specs, sweep.Options{})
	if err != nil {
		return out, err
	}
	base, runs := sw.Results[:len(mixes)], sw.Results[len(mixes):]
	for _, v := range variants {
		for _, k := range policies {
			var ys []float64
			for i := range mixes {
				ys = append(ys, runs[0].Seconds/base[i].Seconds)
				runs = runs[1:]
			}
			ys = append(ys, stats.Mean(ys))
			fig.Add(k.String()+"@"+v.label, ys)
		}
	}
	out.Figures = append(out.Figures, fig)
	return out, nil
}

func fig514(r *Runner) (Result, error) {
	out := Result{ID: "fig5.14"}
	tdps := []float64{88, 90, 92}
	fig := report.NewFigure("Fig 5.14 (PE1950): avg normalized runtime vs AMB TDP",
		"AMB TDP (C)", "runtime / No-limit")
	mixes := r.mixNames()
	// The batch is the baselines, then every policy × TDP × mix in loop
	// order, mix innermost.
	var specs []sweep.Spec
	for _, mix := range mixes {
		specs = append(specs, r.pfSpec(pe, platform.NoLimit, mix))
	}
	for _, k := range ch5Policies {
		for _, tdp := range tdps {
			for _, mix := range mixes {
				spec := r.pfSpec(pe, k, mix)
				spec.Limits.AMBTDP = tdp
				specs = append(specs, spec)
			}
		}
	}
	sw, err := r.Eng.Sweep(context.TODO(), specs, sweep.Options{})
	if err != nil {
		return out, err
	}
	base, runs := sw.Results[:len(mixes)], sw.Results[len(mixes):]
	for _, k := range ch5Policies {
		var ys []float64
		for range tdps {
			var ns []float64
			for i := range mixes {
				ns = append(ns, runs[0].Seconds/base[i].Seconds)
				runs = runs[1:]
			}
			ys = append(ys, stats.Mean(ns))
		}
		fig.AddXY(k.String(), tdps, ys)
	}
	out.Figures = append(out.Figures, fig)
	return out, nil
}

func fig515(r *Runner) (Result, error) {
	out := Result{ID: "fig5.15"}
	quanta := []float64{0.005, 0.01, 0.02, 0.05, 0.1}
	figT := report.NewFigure("Fig 5.15 (PE1950): avg runtime vs scheduling quantum (DTM-ACG)",
		"quantum (ms)", "runtime / 100ms quantum")
	figM := report.NewFigure("Fig 5.15 (PE1950): avg L2 misses vs scheduling quantum (DTM-ACG)",
		"quantum (ms)", "L2 misses / 100ms quantum")
	mixes := r.mixNames()
	var specs []sweep.Spec
	for _, q := range quanta {
		for _, mix := range mixes {
			spec := r.pfSpec(pe, platform.ACG, mix)
			spec.Quantum = q
			specs = append(specs, spec)
		}
	}
	sw, err := r.Eng.Sweep(context.TODO(), specs, sweep.Options{})
	if err != nil {
		return out, err
	}
	runs := sw.Results
	var rt, ms []float64
	for range quanta {
		var sumT, sumM float64
		for range mixes {
			sumT += runs[0].Seconds
			sumM += runs[0].L2Misses
			runs = runs[1:]
		}
		rt = append(rt, sumT)
		ms = append(ms, sumM)
	}
	refT, refM := rt[len(rt)-1], ms[len(ms)-1]
	for i := range rt {
		rt[i] /= refT
		ms[i] /= refM
	}
	x := []float64{5, 10, 20, 50, 100}
	figT.AddXY("running time", x, rt)
	figM.AddXY("L2 misses", x, ms)
	out.Figures = append(out.Figures, figT, figM)
	return out, nil
}
