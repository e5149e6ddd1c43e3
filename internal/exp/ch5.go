// Chapter 5 figures: the measurement-style study on the emulated PE1950
// and SR1500AL testbeds.

package exp

import (
	"fmt"

	"dramtherm/internal/platform"
	"dramtherm/internal/report"
	"dramtherm/internal/stats"
	"dramtherm/internal/workload"
)

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

// homogeneous returns a 4-copy mix of one program.
func homogeneous(name string) workload.Mix {
	return workload.Mix{Name: name + "x4", Apps: []string{name, name, name, name}}
}

// ch5Policies is the Fig. 5.6+ policy list.
var ch5Policies = []platform.PolicyKind{platform.BW, platform.ACG, platform.CDVFS, platform.COMB}

func fig54(r *Runner) (Result, error) {
	out := Result{ID: "fig5.4"}
	apps := []string{"swim", "mgrid", "galgel", "apsi", "vpr"}
	if r.Quick {
		apps = apps[:2]
	}
	fig := report.NewFigure("Fig 5.4: AMB temperature, first 500 s (SR1500AL, no DTM below safety cap)",
		"time (s)", "AMB temperature (C)")
	cfgs := make([]platform.RunConfig, len(apps))
	for i, a := range apps {
		cfgs[i] = platform.RunConfig{
			Machine: r.sr, Policy: platform.NoLimit, Mix: homogeneous(a),
			RunsPerApp: 5, MaxSeconds: 3000,
		}
	}
	runs, err := r.pfRunAll(cfgs)
	if err != nil {
		return out, err
	}
	for i, a := range apps {
		tr := runs[i].AMBTrace
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
	cfgs := make([]platform.RunConfig, len(progs))
	for i, p := range progs {
		cfgs[i] = platform.RunConfig{
			Machine: r.pe, Policy: platform.NoLimit, Mix: homogeneous(p.Name),
			RunsPerApp: 1, MaxSeconds: 5000,
		}
	}
	runs, err := r.pfRunAll(cfgs)
	if err != nil {
		return out, err
	}
	var avgs []float64
	for i, p := range progs {
		res := runs[i]
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

// pfNormSeries runs mixes × policies on machine m and returns normalized
// runtimes plus the raw results for derived figures.
func (r *Runner) pfNormSeries(m platform.Machine, mixes []workload.Mix, variant func(*platform.RunConfig)) (map[platform.PolicyKind][]float64, map[string]platform.RunResult, error) {
	// Plan policy-major, so neighbouring runs in the batch differ in mix;
	// run(p, i) is policy p (0 = No-limit, then ch5Policies) on mixes[i].
	policies := append([]platform.PolicyKind{platform.NoLimit}, ch5Policies...)
	var cfgs []platform.RunConfig
	for _, k := range policies {
		for _, mix := range mixes {
			cfg := platform.RunConfig{Machine: m, Policy: k, Mix: mix}
			if variant != nil {
				variant(&cfg)
			}
			cfgs = append(cfgs, cfg)
		}
	}
	runs, err := r.pfRunAll(cfgs)
	if err != nil {
		return nil, nil, err
	}
	run := func(p, i int) platform.RunResult { return runs[p*len(mixes)+i] }

	norm := make(map[platform.PolicyKind][]float64)
	raw := make(map[string]platform.RunResult)
	for i, mix := range mixes {
		base := run(0, i)
		raw[mix.Name+"/No-limit"] = base
		for p, k := range ch5Policies {
			res := run(p+1, i)
			raw[mix.Name+"/"+k.String()] = res
			norm[k] = append(norm[k], res.Seconds/base.Seconds)
		}
	}
	return norm, raw, nil
}

func ch5Mixes2000(r *Runner) []workload.Mix {
	ms := workload.Chapter4Mixes()
	if r.Quick {
		return ms[:2]
	}
	return ms
}

func fig56(r *Runner) (Result, error) {
	out := Result{ID: "fig5.6"}
	for _, m := range []platform.Machine{r.pe, r.sr} {
		norm, _, err := r.pfNormSeries(m, ch5Mixes2000(r), nil)
		if err != nil {
			return out, err
		}
		fig := report.NewFigure(fmt.Sprintf("Fig 5.6 (%s): normalized running time, SPEC CPU2000", m.Name),
			"workload", "runtime / No-limit")
		for _, k := range ch5Policies {
			ys := norm[k]
			ys = append(ys, stats.Mean(ys))
			fig.Add(k.String(), ys)
		}
		out.Figures = append(out.Figures, fig)
	}
	return out, nil
}

func fig57(r *Runner) (Result, error) {
	out := Result{ID: "fig5.7"}
	mixes := []workload.Mix{}
	for _, n := range []string{"W11", "W12"} {
		m, err := workload.MixByName(n)
		if err != nil {
			return out, err
		}
		mixes = append(mixes, m)
	}
	norm, _, err := r.pfNormSeries(r.pe, mixes, func(c *platform.RunConfig) {
		c.RunsPerApp = 1 // CPU2006 runs are long; the paper uses 5
		if !r.Quick {
			c.RunsPerApp = 2
		}
	})
	if err != nil {
		return out, err
	}
	fig := report.NewFigure("Fig 5.7 (PE1950): normalized running time, SPEC CPU2006",
		"workload", "runtime / No-limit")
	for _, k := range ch5Policies {
		fig.Add(k.String(), norm[k])
	}
	out.Figures = append(out.Figures, fig)
	return out, nil
}

func fig58(r *Runner) (Result, error) {
	out := Result{ID: "fig5.8"}
	for _, m := range []platform.Machine{r.pe, r.sr} {
		_, raw, err := r.pfNormSeries(m, ch5Mixes2000(r), nil)
		if err != nil {
			return out, err
		}
		fig := report.NewFigure(fmt.Sprintf("Fig 5.8 (%s): normalized L2 cache misses", m.Name),
			"workload", "L2 misses / No-limit")
		for _, k := range ch5Policies {
			var ys []float64
			for _, mix := range ch5Mixes2000(r) {
				base := raw[mix.Name+"/No-limit"]
				res := raw[mix.Name+"/"+k.String()]
				ys = append(ys, res.L2Misses/base.L2Misses)
			}
			ys = append(ys, stats.Mean(ys))
			fig.Add(k.String(), ys)
		}
		out.Figures = append(out.Figures, fig)
	}
	return out, nil
}

func fig59(r *Runner) (Result, error) {
	out := Result{ID: "fig5.9"}
	_, raw, err := r.pfNormSeries(r.sr, ch5Mixes2000(r), nil)
	if err != nil {
		return out, err
	}
	fig := report.NewFigure("Fig 5.9 (SR1500AL): measured memory inlet temperature",
		"workload", "inlet (C)")
	for _, k := range ch5Policies {
		var ys []float64
		for _, mix := range ch5Mixes2000(r) {
			ys = append(ys, raw[mix.Name+"/"+k.String()].AvgInletC)
		}
		ys = append(ys, stats.Mean(ys))
		fig.Add(k.String(), ys)
	}
	out.Figures = append(out.Figures, fig)
	return out, nil
}

func fig510(r *Runner) (Result, error) {
	out := Result{ID: "fig5.10"}
	_, raw, err := r.pfNormSeries(r.sr, ch5Mixes2000(r), nil)
	if err != nil {
		return out, err
	}
	fig := report.NewFigure("Fig 5.10 (SR1500AL): CPU power, normalized to DTM-BW",
		"workload", "power / DTM-BW")
	for _, k := range ch5Policies {
		var ys []float64
		for _, mix := range ch5Mixes2000(r) {
			bw := raw[mix.Name+"/DTM-BW"]
			ys = append(ys, raw[mix.Name+"/"+k.String()].AvgCPUWatt/bw.AvgCPUWatt)
		}
		ys = append(ys, stats.Mean(ys))
		fig.Add(k.String(), ys)
	}
	out.Figures = append(out.Figures, fig)
	return out, nil
}

func fig511(r *Runner) (Result, error) {
	out := Result{ID: "fig5.11"}
	_, raw, err := r.pfNormSeries(r.sr, ch5Mixes2000(r), nil)
	if err != nil {
		return out, err
	}
	fig := report.NewFigure("Fig 5.11 (SR1500AL): CPU+DRAM energy, normalized to DTM-BW",
		"workload", "energy / DTM-BW")
	for _, k := range ch5Policies {
		var ys []float64
		for _, mix := range ch5Mixes2000(r) {
			bw := raw[mix.Name+"/DTM-BW"]
			ys = append(ys, raw[mix.Name+"/"+k.String()].TotalEnergyJ()/bw.TotalEnergyJ())
		}
		ys = append(ys, stats.Mean(ys))
		fig.Add(k.String(), ys)
	}
	out.Figures = append(out.Figures, fig)
	return out, nil
}

func fig512(r *Runner) (Result, error) {
	out := Result{ID: "fig5.12"}
	norm, _, err := r.pfNormSeries(r.sr, ch5Mixes2000(r), func(c *platform.RunConfig) {
		c.AmbientOverride = 26
		c.TDPOverride = 90
	})
	if err != nil {
		return out, err
	}
	fig := report.NewFigure("Fig 5.12 (SR1500AL): normalized runtime at 26C ambient, TDP 90C",
		"workload", "runtime / No-limit")
	for _, k := range ch5Policies {
		ys := norm[k]
		ys = append(ys, stats.Mean(ys))
		fig.Add(k.String(), ys)
	}
	out.Figures = append(out.Figures, fig)
	return out, nil
}

// pfBaselines returns the No-limit baseline config of every mix on
// machine m.
func pfBaselines(m platform.Machine, mixes []workload.Mix) []platform.RunConfig {
	cfgs := make([]platform.RunConfig, len(mixes))
	for i, mix := range mixes {
		cfgs[i] = platform.RunConfig{Machine: m, Policy: platform.NoLimit, Mix: mix}
	}
	return cfgs
}

func fig513(r *Runner) (Result, error) {
	out := Result{ID: "fig5.13"}
	fig := report.NewFigure("Fig 5.13 (SR1500AL): DTM-ACG vs DTM-BW at 3.0 and 2.0 GHz",
		"workload", "runtime / No-limit(3GHz)")
	variants := []struct {
		label string
		force int
	}{{"3.0GHz", -1}, {"2.0GHz", 3}}
	policies := []platform.PolicyKind{platform.BW, platform.ACG}
	mixes := ch5Mixes2000(r)
	// The batch is the baselines, then every variant × policy × mix in
	// loop order, mix innermost.
	cfgs := pfBaselines(r.sr, mixes)
	for _, v := range variants {
		for _, k := range policies {
			for _, mix := range mixes {
				cfgs = append(cfgs, platform.RunConfig{
					Machine: r.sr, Policy: k, Mix: mix, ForceFreqIdx: v.force,
				})
			}
		}
	}
	runs, err := r.pfRunAll(cfgs)
	if err != nil {
		return out, err
	}
	base, runs := runs[:len(mixes)], runs[len(mixes):]
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
	mixes := ch5Mixes2000(r)
	// The batch is the baselines, then every policy × TDP × mix in loop
	// order, mix innermost.
	cfgs := pfBaselines(r.pe, mixes)
	for _, k := range ch5Policies {
		for _, tdp := range tdps {
			for _, mix := range mixes {
				cfgs = append(cfgs, platform.RunConfig{
					Machine: r.pe, Policy: k, Mix: mix, TDPOverride: tdp,
				})
			}
		}
	}
	runs, err := r.pfRunAll(cfgs)
	if err != nil {
		return out, err
	}
	base, runs := runs[:len(mixes)], runs[len(mixes):]
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
	mixes := ch5Mixes2000(r)
	var cfgs []platform.RunConfig
	for _, q := range quanta {
		for _, mix := range mixes {
			cfgs = append(cfgs, platform.RunConfig{
				Machine: r.pe, Policy: platform.ACG, Mix: mix, QuantumS: q,
			})
		}
	}
	runs, err := r.pfRunAll(cfgs)
	if err != nil {
		return out, err
	}
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
