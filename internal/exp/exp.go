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
	"strings"
	"sync"
	"sync/atomic"

	"dramtherm/internal/core"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/memo"
	"dramtherm/internal/platform"
	"dramtherm/internal/report"
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
// engine, one trace store per Chapter 5 machine and one memo of Chapter
// 5 platform runs. Every level-2 run goes through the engine's
// deduplicating cache and every platform run through the memo, so
// related figures (e.g. 4.3/4.4/4.9/4.10, or 5.6/5.8/5.9) never repeat
// work, and drivers running concurrently (memtherm -parallel) share
// in-flight runs instead of racing. The engine's worker count bounds
// both kinds of run: Chapter 4 simulations through the engine's pool,
// platform emulations through pfSem.
type Runner struct {
	// Eng serves every Chapter 4 level-2 run.
	Eng *sweep.Engine

	// Quick trades fidelity for speed (small batches, fewer mixes);
	// used by tests and benchmarks.
	Quick bool

	pe, sr  platform.Machine
	peStore *trace.Store
	srStore *trace.Store
	pfRuns  *memo.Table[pfKey, platform.RunResult]
	pfSem   chan struct{} // one slot per running platform emulation
}

// pfKey identifies one Chapter 5 platform run: the machine, the mix and
// every other RunConfig field, after all defaults (pfRun's and the
// platform's), so configs that describe the same run share one key.
type pfKey struct {
	machine, mix string
	apps         string
	policy       platform.PolicyKind
	runsPerApp   int
	quantumS     float64
	instrScale   float64
	sensorSeed   int64
	ambient, tdp fbconfig.Celsius
	forceFreqIdx int
	maxSeconds   float64
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
		Eng:    eng,
		Quick:  quick,
		pe:     platform.PE1950(),
		sr:     platform.SR1500AL(),
		pfRuns: memo.New[pfKey, platform.RunResult](0),
		pfSem:  make(chan struct{}, eng.Workers()),
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

// pfConfig applies the runner's defaults (batch depth by mode, sensor
// noise on) and then the platform's, giving the config the run sees.
func (r *Runner) pfConfig(cfg platform.RunConfig) platform.RunConfig {
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
	return cfg.WithDefaults()
}

// pfKey returns the memo key of the run cfg describes.
func (r *Runner) pfKey(cfg platform.RunConfig) pfKey {
	c := r.pfConfig(cfg)
	return pfKey{
		machine: c.Machine.Name, mix: c.Mix.Name, apps: strings.Join(c.Mix.Apps, ","),
		policy: c.Policy, runsPerApp: c.RunsPerApp, quantumS: c.QuantumS,
		instrScale: c.InstrScale, sensorSeed: c.SensorSeed,
		ambient: c.AmbientOverride, tdp: c.TDPOverride,
		forceFreqIdx: c.ForceFreqIdx, maxSeconds: c.MaxSeconds,
	}
}

// pfRun executes one Chapter 5 platform run on one of the runner's two
// machines through the pfRuns memo, so concurrent drivers share
// in-flight emulations the same way Chapter 4 runs share simulations.
// The memo leader takes a pfSem slot for the emulation itself; hits and
// joins take none, so at most Eng.Workers() emulations run at once
// however many drivers and batches are live.
func (r *Runner) pfRun(cfg platform.RunConfig) (platform.RunResult, error) {
	cfg = r.pfConfig(cfg)
	var store *trace.Store
	switch cfg.Machine.Name {
	case r.pe.Name:
		store = r.peStore
	case r.sr.Name:
		store = r.srStore
	default:
		return platform.RunResult{}, fmt.Errorf("exp: no platform store for machine %q", cfg.Machine.Name)
	}
	res, _, err := r.pfRuns.Do(context.TODO(), r.pfKey(cfg), func(context.Context) (platform.RunResult, error) {
		r.pfSem <- struct{}{}
		defer func() { <-r.pfSem }()
		return platform.RunPlatform(cfg, store)
	})
	return res, err
}

// pfRunAll runs a batch of platform runs, Eng.Workers() at a time, and
// returns the results in input order. The workers pull configs in input
// order from one shared index, so the earliest configs start first, and
// a batch planned with neighbouring configs on different mixes keeps
// concurrent runs from waiting on each other's in-flight level-1
// builds. Every run
// goes through pfRun and its memo. On failure the batch stops taking
// new configs and returns the first error in input order: every config
// before the failing one was already taken, so that error is exact.
func (r *Runner) pfRunAll(cfgs []platform.RunConfig) ([]platform.RunResult, error) {
	res := make([]platform.RunResult, len(cfgs))
	errs := make([]error, len(cfgs))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range min(r.Eng.Workers(), len(cfgs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(cfgs) {
					return
				}
				if res[i], errs[i] = r.pfRun(cfgs[i]); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
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
