// Command perfbench is the repository's whole-run benchmark. It runs one
// named workload through the entry points users call — sweep.Engine.Sweep,
// the exp drivers and the /v1 HTTP routes — checks every output, and
// prints one JSON line with every metric by name and unit:
//
//	perfbench -workload cold-sweep -seed 1 -seconds 12 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 the same measured phase runs, followed by one traced
// unit of work whose spans give the per-layer breakdown. The load is
// sized for two CPUs: a pool of two simulation workers and at most two
// client connections. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workers is the simulation worker-pool width and clients the number of
// closed-loop HTTP clients: the benchmark is sized for a 2-CPU host.
const (
	workers = 2
	clients = 2
)

// defaultSeed is the seed whose outputs are pinned by recorded digests.
const defaultSeed = 1

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies application run lengths (core.Config.InstrScale).
	// The benchmark runs at 1; the self-test shrinks it.
	scale float64
	// workdir holds segment logs while the benchmark runs.
	workdir string
	// forceFail makes one output check fail (self-test only).
	forceFail bool
	log       io.Writer
}

// workloads maps a workload name to its driver.
var workloads = map[string]func(*bench) error{
	"cold-sweep":  coldSweep,
	"warm-grid":   warmGrid,
	"serve-exec":  serveExec,
	"ch5-fig5.15": ch5Fig515,
}

// endToEnd and perLayer list every metric the benchmark prints, in
// order, with its unit. BENCHMARK.json names the same metrics.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
}

var perLayer = []metricDef{
	{"level1.builds", "count"},
	{"level1.build_s", "s"},
	{"level1.build_ms_p50", "ms"},
	{"trace.hits", "count"},
	{"trace.hit_ratio", "ratio"},
	{"level2.windows", "count"},
	{"level2.step_s", "s"},
	{"level2.ns_per_window", "ns"},
	{"dtm.decisions", "count"},
	{"dtm.decide_s", "s"},
	{"prefix.leaders", "count"},
	{"prefix.full_reuse", "count"},
	{"prefix.resumed", "count"},
	{"prefix.cold", "count"},
	{"prefix.checkpoints", "count"},
	{"prefix.steps_simulated", "count"},
	{"prefix.steps_saved", "count"},
	{"prefix.saved_ratio", "ratio"},
	{"prefix.wait_s", "s"},
	{"sweep.builds", "count"},
	{"sweep.hits", "count"},
	{"sweep.joins", "count"},
	{"sweep.hit_ratio", "ratio"},
	{"sweep.self_s", "s"},
	{"seglog.appends", "count"},
	{"seglog.bytes", "bytes"},
	{"seglog.append_errors", "count"},
	{"seglog.append_s", "s"},
	{"http.requests", "count"},
	{"http.server_s", "s"},
	{"http.client_s", "s"},
	{"http.resp_bytes", "bytes"},
	{"platform.run_s", "s"},
	{"exp.self_s", "s"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"traced_wall_s", "s"},
	{"unattributed_s", "s"},
	{"trace_overhead_s", "s"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 12, "how long the measured phase runs, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced unit of work and prints per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "directory for segment logs")
	flag.Parse()
	o.trace = trace == 1
	o.scale = 1
	o.log = os.Stderr
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(o)
	if err == nil {
		err = emit(os.Stdout, res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// emit prints the result as one JSON line.
func emit(w io.Writer, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one workload and assembles its result. An error means
// the benchmark itself could not run; failed operations and output
// checks are counted in the result instead.
func run(o options) (*result, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	if o.log == nil {
		o.log = io.Discard
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{opts: o, layer: make(map[string]float64)}
	if err := fn(b); err != nil {
		return nil, err
	}
	return b.result(), nil
}

// bench accumulates one workload run: operation and check outcomes,
// end-to-end samples and per-layer values.
type bench struct {
	opts options

	attempted, failed int
	forced            bool // the self-test's forced failure was spent

	setupOnce float64   // seconds of set-up done once per run
	setups    []float64 // seconds per repeated set-up
	walls     []float64 // seconds per unit of work
	lats      []float64 // seconds per request; batch workloads use walls
	ops       int       // results completed in the measured units
	rssMB     float64

	layer map[string]float64
}

// check records one output check; a false ok counts as a failure.
func (b *bench) check(ok bool, format string, args ...any) bool {
	if ok && b.opts.forceFail && !b.forced {
		b.forced = true
		ok = false
		format = "forced failure: " + format
	}
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(b.opts.log, "check failed: "+format+"\n", args...)
	}
	return ok
}

// op records one operation's outcome.
func (b *bench) op(err error, what string) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.opts.log, "%s failed: %v\n", what, err)
		return false
	}
	return true
}

// measure runs unit until the measured phase has lasted opts.seconds
// and at least minUnits units have run, recording each unit's wall
// time, the Go runtime's allocation and GC activity per unit and the
// peak RSS afterwards. Each unit starts on a collected heap, so garbage
// a unit leaves behind (a whole server's state, on serve-exec) is not
// charged to the next one.
func (b *bench) measure(minUnits int, unit func(i int) error) error {
	var m0, m1 runtime.MemStats
	var alloc, gcs, pause uint64
	start := time.Now()
	n := 0
	for n < minUnits || time.Since(start).Seconds() < b.opts.seconds {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		if err := unit(n); err != nil {
			return err
		}
		b.walls = append(b.walls, time.Since(t0).Seconds())
		runtime.ReadMemStats(&m1)
		alloc += m1.TotalAlloc - m0.TotalAlloc
		gcs += uint64(m1.NumGC - m0.NumGC)
		pause += m1.PauseTotalNs - m0.PauseTotalNs
		fmt.Fprintf(b.opts.log, "unit %d: %.3f s\n", n, b.walls[n])
		n++
	}
	b.rssMB = maxRSSMB()
	b.layer["go.alloc_mb"] = float64(alloc) / float64(n) / (1 << 20)
	b.layer["go.gc_cycles"] = float64(gcs) / float64(n)
	b.layer["go.gc_pause_ms"] = float64(pause) / float64(n) / 1e6
	return nil
}

// timeSetup runs fn reps times and records each duration.
func (b *bench) timeSetup(reps int, fn func()) {
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		fn()
		b.setups = append(b.setups, time.Since(t0).Seconds())
	}
}

func (b *bench) result() *result {
	r := &result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metricValue),
	}
	if r.Attempted == 0 {
		r.Attempted = 1
		r.Failed = 1
		r.Correct = false
	}
	if b.opts.trace {
		for _, m := range perLayer {
			r.Metrics[m.name] = metricValue{b.layer[m.name], m.unit}
		}
		return r
	}
	// A batch caller waits for the whole sweep or figure.
	lats := b.lats
	if len(lats) == 0 {
		lats = b.walls
	}
	busy := 0.0
	for _, w := range b.walls {
		busy += w
	}
	ops := 0.0
	if busy > 0 {
		ops = float64(b.ops) / busy
	}
	vals := map[string]float64{
		"wall_s":     median(b.walls),
		"setup_s":    b.setupOnce + median(b.setups),
		"max_rss_mb": b.rssMB,
		"op_p50_ms":  quantile(lats, 0.50) * 1e3,
		"op_p99_ms":  quantile(lats, 0.99) * 1e3,
		"ops_per_s":  ops,
	}
	for _, m := range endToEnd {
		r.Metrics[m.name] = metricValue{vals[m.name], m.unit}
	}
	return r
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
