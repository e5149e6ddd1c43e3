// Package exp contains one driver per table and figure of the paper's
// evaluation (Chapters 3–5). Each driver regenerates the artifact's rows
// or series from the simulation/emulation substrate, running its
// figure as spec lists through the runner's sweep engine, and renders it
// through internal/report. The registry maps experiment IDs ("fig4.3",
// "table4.4", …) to drivers; cmd/memtherm exposes them on the command
// line and bench_test.go exposes them as benchmarks.
package exp

import (
	"fmt"
	"sort"

	"dramtherm/internal/core"
	"dramtherm/internal/report"
	"dramtherm/internal/sweep"
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

// Runner carries the shared state all drivers use: one sweep engine.
// Every run of both chapters, a Chapter 4 simulation or a Chapter 5
// platform run, goes through the engine's deduplicating cache and its
// worker pool, so related figures (e.g. 4.3/4.4/4.9/4.10, or
// 5.6/5.8/5.9) never repeat work, drivers running concurrently
// (memtherm -parallel) share in-flight runs instead of racing, and at
// most Eng.Workers() runs of either kind execute at once.
type Runner struct {
	// Eng serves every run.
	Eng *sweep.Engine

	// Quick trades fidelity for speed (small batches, fewer mixes);
	// used by tests and benchmarks.
	Quick bool
}

// NewRunnerParallel builds a Runner over a fresh engine with the given
// worker-pool width (<= 0 selects GOMAXPROCS). quick selects the
// reduced-scale mode.
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
	return &Runner{Eng: eng, Quick: quick}
}

// mixes returns the Chapter 4 mixes, truncated in quick mode.
func (r *Runner) mixes() []workload.Mix {
	ms := workload.Chapter4Mixes()
	if r.Quick {
		return ms[:2]
	}
	return ms
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
