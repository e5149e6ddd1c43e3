// Chapter 4 figures: the simulation study of the DTM schemes. Each
// driver plans its figure as one spec list (the zero Model is the
// isolated one) and runs it with one engine Sweep, so the figure's runs
// share the worker pool; it then reads the results back in plan order.

package exp

import (
	"context"
	"fmt"

	"dramtherm/internal/fbconfig"
	"dramtherm/internal/report"
	"dramtherm/internal/sim"
	"dramtherm/internal/stats"
	"dramtherm/internal/sweep"
)

func init() {
	register("fig4.2", "DTM-TS performance with varied TRP", fig42)
	register("fig4.3", "Normalized running time for DTM schemes", fig43)
	register("fig4.4", "Normalized total memory traffic for DTM schemes", fig44)
	register("fig4.5", "AMB temperature of DTM-TS, W1, AOHS 1.5", figTemp("fig4.5", "DTM-TS"))
	register("fig4.6", "AMB temperature of DTM-BW, W1, AOHS 1.5", figTemp("fig4.6", "DTM-BW"))
	register("fig4.7", "AMB temperature of DTM-ACG, W1, AOHS 1.5", figTemp("fig4.7", "DTM-ACG"))
	register("fig4.8", "AMB temperature of DTM-CDVFS, W1, AOHS 1.5", figTemp("fig4.8", "DTM-CDVFS"))
	register("fig4.9", "Normalized FBDIMM energy for DTM schemes", fig49)
	register("fig4.10", "Normalized processor energy for DTM schemes", fig410)
	register("fig4.11", "Normalized average running time vs DTM interval", fig411)
	register("fig4.12", "Normalized running time, integrated thermal model", fig412)
	register("fig4.13", "Average running time vs thermal interaction degree", fig413)
	register("fig4.14", "ACG/CDVFS improvement over BW vs interaction degree", fig414)
}

// coolings returns the two experiment cooling configurations.
func coolings() []fbconfig.Cooling { return fbconfig.ExperimentCoolings }

func fig42(r *Runner) (Result, error) {
	res := Result{ID: "fig4.2"}
	type panel struct {
		cooling fbconfig.Cooling
		isAMB   bool
		trps    []float64
	}
	panels := []panel{
		{fbconfig.CoolingFDHS10, false, []float64{81, 82, 83, 84, 84.5}},
		{fbconfig.CoolingAOHS15, true, []float64{106, 107, 108, 109, 109.5}},
	}
	var specs []sweep.Spec
	for _, p := range panels {
		for _, mix := range r.mixes() {
			for _, trp := range p.trps {
				lim := fbconfig.DefaultLimits
				if p.isAMB {
					lim.AMBTRP = trp
				} else {
					lim.DRAMTRP = trp
				}
				// The TS policy carries its own limits; the engine
				// builds it with the swept TRP because the spec's Limits
				// override reaches policy construction. The No-limit
				// baseline runs under the default limits.
				specs = append(specs, sweep.Spec{Mix: mix.Name, Policy: "DTM-TS",
					Cooling: p.cooling.Name(), Limits: lim})
			}
		}
	}
	sw, err := r.Eng.Sweep(context.TODO(), specs, sweep.Options{Normalize: true})
	if err != nil {
		return res, err
	}
	norms := sw.Norms
	for _, p := range panels {
		kind := "DRAM TRP"
		if p.isAMB {
			kind = "AMB TRP"
		}
		fig := report.NewFigure(
			fmt.Sprintf("Fig 4.2 (%s): DTM-TS normalized runtime vs %s", p.cooling.Name(), kind),
			kind+" (C)", "normalized running time")
		for _, mix := range r.mixes() {
			fig.AddXY(mix.Name, p.trps, norms[:len(p.trps):len(p.trps)])
			norms = norms[len(p.trps):]
		}
		res.Figures = append(res.Figures, fig)
	}
	return res, nil
}

// schemeSet is the Fig. 4.3/4.4/4.9/4.10 policy list.
func schemeSet(r *Runner) []string {
	if r.Quick {
		return []string{"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"}
	}
	return []string{"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS",
		"DTM-BW+PID", "DTM-ACG+PID", "DTM-CDVFS+PID"}
}

// byScheme runs every (mix, scheme) pair for both coolings, with each
// mix's No-limit and DTM-TS runs, and hands the per-run values to get.
func (r *Runner) byScheme(id, caption, ylabel string,
	get func(res, ts, base sim.MEMSpotResult) float64) (Result, error) {
	out := Result{ID: id}
	schemes := schemeSet(r)
	// Per (cooling, mix): No-limit, DTM-TS, then every scheme. DTM-TS is
	// also a scheme; the engine runs it once.
	var specs []sweep.Spec
	for _, cool := range coolings() {
		for _, mix := range r.mixes() {
			for _, p := range append([]string{"No-limit", "DTM-TS"}, schemes...) {
				specs = append(specs, sweep.Spec{Mix: mix.Name, Policy: p, Cooling: cool.Name()})
			}
		}
	}
	sw, err := r.Eng.Sweep(context.TODO(), specs, sweep.Options{})
	if err != nil {
		return out, err
	}
	in := sw.Results
	k := 0
	for _, cool := range coolings() {
		fig := report.NewFigure(fmt.Sprintf("%s (%s)", caption, cool.Name()), "workload", ylabel)
		series := make(map[string][]float64, len(schemes))
		for range r.mixes() {
			base, ts := in[k], in[k+1]
			for j, s := range schemes {
				series[s] = append(series[s], get(in[k+2+j], ts, base))
			}
			k += 2 + len(schemes)
		}
		for _, s := range schemes {
			ys := series[s]
			ys = append(ys, stats.Mean(ys)) // final point = average, as in the paper's "avg" bar
			fig.Add(s, ys)
		}
		out.Figures = append(out.Figures, fig)
	}
	return out, nil
}

func fig43(r *Runner) (Result, error) {
	return r.byScheme("fig4.3", "Fig 4.3: normalized running time", "runtime / No-limit",
		func(res, ts, base sim.MEMSpotResult) float64 { return res.Seconds / base.Seconds })
}

func fig44(r *Runner) (Result, error) {
	return r.byScheme("fig4.4", "Fig 4.4: normalized total memory traffic", "traffic / No-limit",
		func(res, ts, base sim.MEMSpotResult) float64 { return res.TotalTrafficGB() / base.TotalTrafficGB() })
}

func fig49(r *Runner) (Result, error) {
	return r.byScheme("fig4.9", "Fig 4.9: normalized FBDIMM energy", "energy / DTM-TS",
		func(res, ts, base sim.MEMSpotResult) float64 { return res.MemEnergyJ / ts.MemEnergyJ })
}

func fig410(r *Runner) (Result, error) {
	return r.byScheme("fig4.10", "Fig 4.10: normalized processor energy", "energy / DTM-TS",
		func(res, ts, base sim.MEMSpotResult) float64 { return res.CPUEnergyJ / ts.CPUEnergyJ })
}

// figTemp renders the first 1000 s of the AMB temperature trace of one
// scheme on W1 under AOHS 1.5 (Figs. 4.5–4.8).
func figTemp(id, scheme string) func(*Runner) (Result, error) {
	return func(r *Runner) (Result, error) {
		mix := r.mixes()[0] // W1
		res, _, err := r.Eng.Run(context.TODO(), sweep.Spec{Mix: mix.Name, Policy: scheme,
			Cooling: fbconfig.CoolingAOHS15.Name()})
		if err != nil {
			return Result{}, err
		}
		tr := res.AMBTrace
		if len(tr) > 1000 {
			tr = tr[:1000]
		}
		fig := report.NewFigure(
			fmt.Sprintf("%s: AMB temperature of %s for W1 with AOHS 1.5", id, scheme),
			"time (s)", "AMB temperature (C)")
		fig.Add(scheme, tr)
		return Result{ID: id, Figures: []*report.Figure{fig}}, nil
	}
}

func fig411(r *Runner) (Result, error) {
	out := Result{ID: "fig4.11"}
	intervals := []float64{0.001, 0.01, 0.02, 0.1}
	schemes := []string{"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"}
	var specs []sweep.Spec
	for _, cool := range coolings() {
		for _, s := range schemes {
			for _, iv := range intervals {
				for _, mix := range r.mixes() {
					specs = append(specs, sweep.Spec{Mix: mix.Name, Policy: s,
						Cooling: cool.Name(), Interval: iv})
				}
			}
		}
	}
	sw, err := r.Eng.Sweep(context.TODO(), specs, sweep.Options{})
	if err != nil {
		return out, err
	}
	k := 0
	for _, cool := range coolings() {
		fig := report.NewFigure(
			fmt.Sprintf("Fig 4.11 (%s): normalized avg runtime vs DTM interval", cool.Name()),
			"DTM interval (ms)", "runtime / 10ms interval")
		for _, s := range schemes {
			var ys []float64
			var ref float64
			for _, iv := range intervals {
				var sum float64
				for range r.mixes() {
					sum += sw.Results[k].Seconds
					k++
				}
				if iv == 0.01 {
					ref = sum
				}
				ys = append(ys, sum)
			}
			for i := range ys {
				ys[i] /= ref
			}
			fig.AddXY(s, []float64{1, 10, 20, 100}, ys)
		}
		out.Figures = append(out.Figures, fig)
	}
	return out, nil
}

func fig412(r *Runner) (Result, error) {
	out := Result{ID: "fig4.12"}
	schemes := []string{"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"}
	var specs []sweep.Spec
	for _, cool := range coolings() {
		for _, mix := range r.mixes() {
			for _, s := range schemes {
				specs = append(specs, sweep.Spec{Mix: mix.Name, Policy: s,
					Cooling: cool.Name(), Model: "integrated"})
			}
		}
	}
	sw, err := r.Eng.Sweep(context.TODO(), specs, sweep.Options{Normalize: true})
	if err != nil {
		return out, err
	}
	norms := sw.Norms
	for _, cool := range coolings() {
		fig := report.NewFigure(
			fmt.Sprintf("Fig 4.12 (%s): normalized runtime, integrated thermal model", cool.Name()),
			"workload", "runtime / No-limit")
		series := make(map[string][]float64)
		for range r.mixes() {
			for _, s := range schemes {
				series[s] = append(series[s], norms[0])
				norms = norms[1:]
			}
		}
		for _, s := range schemes {
			ys := series[s]
			ys = append(ys, stats.Mean(ys))
			fig.Add(s, ys)
		}
		out.Figures = append(out.Figures, fig)
	}
	return out, nil
}

// interactionDegrees are the Fig. 4.13/4.14 Ψ_CPU_MEM×ξ settings.
var interactionDegrees = []float64{1.0, 1.5, 2.0}

func fig413(r *Runner) (Result, error) {
	out := Result{ID: "fig4.13"}
	schemes := []string{"DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS"}
	cool := fbconfig.CoolingFDHS10
	var specs []sweep.Spec
	for _, s := range schemes {
		for _, deg := range interactionDegrees {
			for _, mix := range r.mixes() {
				specs = append(specs, sweep.Spec{Mix: mix.Name, Policy: s,
					Cooling: cool.Name(), Model: "integrated", PsiXi: deg})
			}
		}
	}
	sw, err := r.Eng.Sweep(context.TODO(), specs, sweep.Options{Normalize: true})
	if err != nil {
		return out, err
	}
	norms := sw.Norms
	fig := report.NewFigure("Fig 4.13 (FDHS 1.0): avg normalized runtime vs thermal interaction degree",
		"PsiCPU_MEM*xi", "runtime / No-limit")
	for _, s := range schemes {
		var ys []float64
		for range interactionDegrees {
			n := len(r.mixes())
			ys = append(ys, stats.Mean(norms[:n]))
			norms = norms[n:]
		}
		fig.AddXY(s, interactionDegrees, ys)
	}
	out.Figures = append(out.Figures, fig)
	return out, nil
}

func fig414(r *Runner) (Result, error) {
	out := Result{ID: "fig4.14"}
	cool := fbconfig.CoolingFDHS10
	schemes := []string{"DTM-ACG", "DTM-CDVFS"}
	// Per (scheme, degree, mix): the DTM-BW run, then the scheme's.
	var specs []sweep.Spec
	for _, s := range schemes {
		for _, deg := range interactionDegrees {
			for _, mix := range r.mixes() {
				for _, p := range []string{"DTM-BW", s} {
					specs = append(specs, sweep.Spec{Mix: mix.Name, Policy: p,
						Cooling: cool.Name(), Model: "integrated", PsiXi: deg})
				}
			}
		}
	}
	sw, err := r.Eng.Sweep(context.TODO(), specs, sweep.Options{})
	if err != nil {
		return out, err
	}
	k := 0
	fig := report.NewFigure("Fig 4.14 (FDHS 1.0): avg improvement over DTM-BW vs interaction degree",
		"PsiCPU_MEM*xi", "improvement over DTM-BW (%)")
	for _, s := range schemes {
		var ys []float64
		for range interactionDegrees {
			var imps []float64
			for range r.mixes() {
				bw, res := sw.Results[k], sw.Results[k+1]
				imps = append(imps, (bw.Seconds-res.Seconds)/bw.Seconds*100)
				k += 2
			}
			ys = append(ys, stats.Mean(imps))
		}
		fig.AddXY(s, interactionDegrees, ys)
	}
	out.Figures = append(out.Figures, fig)
	return out, nil
}
