// Package exp contains one driver per table and figure of the paper's
// evaluation (Chapters 3–5). Each driver regenerates the artifact's rows
// or series from the simulation/emulation substrate and renders it
// through internal/report. The registry maps experiment IDs ("fig4.3",
// "table4.4", …) to drivers; cmd/memtherm exposes them on the command
// line and bench_test.go exposes them as benchmarks.
package exp

import (
	"context"
	"fmt"
	"sort"

	"dramtherm/internal/core"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/memo"
	"dramtherm/internal/platform"
	"dramtherm/internal/report"
	"dramtherm/internal/sim"
	"dramtherm/internal/sweep"
	"dramtherm/internal/trace"
	"dramtherm/internal/workload"
)

// Result is a rendered experiment: any number of tables and figures.
type Result struct {
	ID      string
	Tables  []*report.Table
	Figures []*report.Figure
}

// String renders everything as text (figures as data table + chart).
func (r Result) String() string {
	out := ""
	for _, t := range r.Tables {
		out += t.String()
	}
	for _, f := range r.Figures {
		out += f.DataTable().String()
		out += f.Chart(72, 16)
		out += "\n"
	}
	return out
}

// Runner carries the shared state all drivers use: one Chapter 4 sweep
// engine and one trace store per Chapter 5 machine. All level-2 runs go
// through the engine's deduplicating cache, so related figures (e.g.
// 4.3/4.4/4.9/4.10) never repeat work — and drivers running concurrently
// (memtherm -parallel) share in-flight simulations instead of racing.
type Runner struct {
	Sys *core.System
	// Eng serves every Chapter 4 level-2 run.
	Eng *sweep.Engine

	// Quick trades fidelity for speed (small batches, fewer mixes);
	// used by tests and benchmarks.
	Quick bool

	pe, sr  platform.Machine
	peStore *trace.Store
	srStore *trace.Store
	pfRuns  *memo.Table[pfKey, platform.RunResult]
}

// pfKey identifies one Chapter 5 platform run: the RunConfig fields the
// drivers vary, after pfRun's defaults.
type pfKey struct {
	machine, mix string
	policy       platform.PolicyKind
	runsPerApp   int
	quantumS     float64
	ambient, tdp fbconfig.Celsius
	forceFreqIdx int
	sensorSeed   int64
}

// NewRunner builds a Runner. quick selects the reduced-scale mode.
func NewRunner(quick bool) *Runner {
	return NewRunnerParallel(quick, 0)
}

// NewRunnerParallel is NewRunner with an explicit simulation worker-pool
// width (<= 0 selects GOMAXPROCS).
func NewRunnerParallel(quick bool, workers int) *Runner {
	return NewRunnerFor(sweep.NewEngine(core.NewSystem(RunnerConfig(quick)), workers), quick)
}

// RunnerConfig is the system configuration the drivers expect: the
// Chapter 4 defaults, with the batch replica count reduced in quick
// mode. Callers building their own engine (e.g. through the public
// dramtherm facade, to add durable state) start from this and pass the
// engine to NewRunnerFor.
func RunnerConfig(quick bool) core.Config {
	cfg := core.DefaultConfig()
	if quick {
		cfg.Replicas = 2
	} else {
		cfg.Replicas = 4
	}
	return cfg
}

// NewRunnerFor wraps an existing sweep engine — one the caller already
// configured with durable state or a cluster backend — in a Runner. The
// engine's System should come from RunnerConfig so results line up with
// the paper's tables.
func NewRunnerFor(eng *sweep.Engine, quick bool) *Runner {
	r := &Runner{
		Sys:    eng.System(),
		Eng:    eng,
		Quick:  quick,
		pe:     platform.PE1950(),
		sr:     platform.SR1500AL(),
		pfRuns: memo.New[pfKey, platform.RunResult](0),
	}
	r.peStore = platform.NewStore(r.pe, 1)
	r.srStore = platform.NewStore(r.sr, 1)
	return r
}

// mixes returns the Chapter 4 mixes, truncated in quick mode.
func (r *Runner) mixes() []workload.Mix {
	ms := workload.Chapter4Mixes()
	if r.Quick {
		return ms[:2]
	}
	return ms
}

// run executes one Chapter 4 level-2 run through the sweep engine, which
// memoizes it and deduplicates concurrent requests for the same spec.
func (r *Runner) run(mix workload.Mix, policyName string, cooling fbconfig.Cooling, model core.ThermalModelKind, spec core.RunSpec) (sim.MEMSpotResult, error) {
	res, _, err := r.Eng.Run(context.Background(), sweep.Spec{
		Mix:      mix.Name,
		Policy:   policyName,
		Cooling:  cooling.Name(),
		Model:    model.String(),
		PsiXi:    spec.PsiXi,
		Interval: spec.Interval,
		Limits:   spec.Limits,
	})
	return res, err
}

// norm returns runtime normalized to the No-limit baseline.
func (r *Runner) norm(mix workload.Mix, policyName string, cooling fbconfig.Cooling, model core.ThermalModelKind, spec core.RunSpec) (float64, sim.MEMSpotResult, error) {
	res, err := r.run(mix, policyName, cooling, model, spec)
	if err != nil {
		return 0, res, err
	}
	base, err := r.run(mix, "No-limit", cooling, model, core.RunSpec{PsiXi: spec.PsiXi})
	if err != nil {
		return 0, res, err
	}
	return res.Seconds / base.Seconds, res, nil
}

// pfRun executes one Chapter 5 platform run through a memo table, so
// concurrent drivers share in-flight emulations the same way Chapter 4
// runs share simulations. Drivers call it sequentially and memtherm
// -parallel bounds how many drivers run at once, so it needs no pool.
func (r *Runner) pfRun(cfg platform.RunConfig) (platform.RunResult, error) {
	if cfg.RunsPerApp == 0 {
		if r.Quick {
			cfg.RunsPerApp = 1
		} else {
			cfg.RunsPerApp = 3
		}
	}
	if cfg.SensorSeed == 0 {
		cfg.SensorSeed = 7
	}
	key := pfKey{
		machine: cfg.Machine.Name, mix: cfg.Mix.Name, policy: cfg.Policy,
		runsPerApp: cfg.RunsPerApp, quantumS: cfg.QuantumS,
		ambient: cfg.AmbientOverride, tdp: cfg.TDPOverride,
		forceFreqIdx: cfg.ForceFreqIdx, sensorSeed: cfg.SensorSeed,
	}
	res, _, err := r.pfRuns.Do(context.TODO(), key, func(context.Context) (platform.RunResult, error) {
		store := r.peStore
		if cfg.Machine.Name == r.sr.Name {
			store = r.srStore
		}
		return platform.RunPlatform(cfg, store)
	})
	return res, err
}

// Driver is one registered experiment.
type Driver struct {
	ID    string
	Title string
	Run   func(*Runner) (Result, error)
}

var registry = map[string]Driver{}

func register(id, title string, fn func(*Runner) (Result, error)) {
	registry[id] = Driver{ID: id, Title: title, Run: fn}
}

// Lookup returns the driver for id.
func Lookup(id string) (Driver, error) {
	d, ok := registry[id]
	if !ok {
		return Driver{}, fmt.Errorf("exp: unknown experiment %q (try `memtherm -list`)", id)
	}
	return d, nil
}

// IDs returns all experiment IDs in a stable order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// All returns all drivers sorted by ID.
func All() []Driver {
	out := make([]Driver, 0, len(registry))
	for _, id := range IDs() {
		out = append(out, registry[id])
	}
	return out
}
