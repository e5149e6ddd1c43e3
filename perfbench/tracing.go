package main

// The traced unit of work. Spans are recorded from the benchmark's own
// code around the calls into each layer and kept in memory until the
// unit ends. Where a layer has no public seam — level-1 builds happen
// inside core.System's trace store, DTM decisions inside sim.MEMSpot —
// the traced unit puts the same public pieces together itself: the
// engine's runs go through a sweep.SpecBackend that drives sim.NewMEMSpot
// (and, with prefix sharing, prefix.Sharer) over a trace store whose
// builder times every sim.Level1 build, with every policy wrapped in a
// timing dtm.Policy. Its results are checked equal to the untraced ones.

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dramtherm/internal/core"
	"dramtherm/internal/dtm"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/sim"
	"dramtherm/internal/sweep"
	"dramtherm/internal/sweep/prefix"
	"dramtherm/internal/trace"
)

// Layer names; each span belongs to one.
const (
	layerLevel1     = "level1"
	layerLevel2     = "level2"
	layerDTM        = "dtm"
	layerPrefixWait = "prefix.wait"
	layerSweep      = "sweep"
	layerSeglog     = "seglog"
	layerHTTPServer = "http.server"
	layerHTTPClient = "http.client"
	layerPlatform   = "platform"
	layerExp        = "exp"
)

// span is one finished interval of work in a layer. Times are
// nanoseconds since the tracer started.
type span struct {
	id, parent int64
	layer      string
	start, end int64
	// wait marks time spent blocked on work another span does (a
	// follower waiting for its prefix leader, a run waiting for an
	// in-flight level-1 build of the same design point).
	wait bool
	// dtmN counts the policy decisions made inside the span and dtmNs
	// estimates their time (see timedPolicy): millions per run, too many
	// to keep one span each.
	dtmNs, dtmN int64
}

// tracer collects the spans of one traced unit of work.
type tracer struct {
	t0   time.Time
	next atomic.Int64

	mu     sync.Mutex
	spans  []span
	stacks map[int64][]*openSpan // open spans per goroutine, innermost last
}

// openSpan is a span in progress, owned by the goroutine that began it.
type openSpan struct {
	tr  *tracer
	gid int64
	span
}

type spanKey struct{}

// newTracer starts a traced unit, on a collected heap like every
// measured unit.
func newTracer() *tracer {
	runtime.GC()
	return &tracer{t0: time.Now(), stacks: make(map[int64][]*openSpan)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span in layer. Its parent is the innermost span open on
// the calling goroutine or, when there is none, the span carried by ctx
// (work handed to another goroutine). The returned context carries the
// new span for work this one hands off.
func (t *tracer) begin(ctx context.Context, layer string) (context.Context, *openSpan) {
	gid := goid()
	s := &openSpan{tr: t, gid: gid}
	s.id = t.next.Add(1)
	s.layer = layer
	t.mu.Lock()
	if st := t.stacks[gid]; len(st) > 0 {
		s.parent = st[len(st)-1].id
	} else if ctx != nil {
		if p, ok := ctx.Value(spanKey{}).(int64); ok {
			s.parent = p
		}
	}
	t.stacks[gid] = append(t.stacks[gid], s)
	t.mu.Unlock()
	s.start = t.now()
	if ctx == nil {
		return nil, s
	}
	return context.WithValue(ctx, spanKey{}, s.id), s
}

// end closes the span; it must be the innermost open one on its
// goroutine.
func (s *openSpan) end() {
	s.span.end = s.tr.now()
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stacks[s.gid]
	if len(st) == 0 || st[len(st)-1] != s {
		panic("perfbench: span " + s.layer + " ended out of order")
	}
	if len(st) == 1 {
		delete(t.stacks, s.gid)
	} else {
		t.stacks[s.gid] = st[:len(st)-1]
	}
	t.spans = append(t.spans, s.span)
}

// addWait records an already elapsed wait as a child of parent.
func (t *tracer) addWait(parent *openSpan, layer string, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{id: t.next.Add(1), parent: parent.id, layer: layer, start: start, end: end, wait: true})
	t.mu.Unlock()
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 123 [running]:"). Only span boundaries call it.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	b := bytes.TrimPrefix(buf[:n], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		panic("perfbench: cannot parse goroutine id")
	}
	return id
}

// attribution is the traced unit's wall time split across layers.
type attribution struct {
	wall         float64            // seconds the traced unit took
	self         map[string]float64 // seconds per layer
	unattributed float64
	busy         map[string]float64 // per-layer busy seconds, summed over goroutines (same-goroutine children only)
	durs         map[string][]float64
}

// attribute splits the wall time from start to end into layer
// shares. At every instant the innermost spans that are running — busy
// spans with no running child — share the instant equally; blocked
// (wait) spans share it only when nothing is busy, and an instant with no
// span at all is unattributed. So the shares plus the unattributed time
// add up to the wall time exactly, with two parallel workers as with
// one. A span's aggregated DTM time takes the same fraction of the
// span's share as it takes of the span's self time.
func (t *tracer) attribute(start, end int64) attribution {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	idx := make(map[int64]int, len(spans))
	for i, s := range spans {
		idx[s.id] = i
	}
	parent := make([]int, len(spans))
	childNs := make([]int64, len(spans))
	for i, s := range spans {
		parent[i] = -1
		if p, ok := idx[s.parent]; ok && s.parent != 0 {
			parent[i] = p
			childNs[p] += s.end - s.start
		}
	}

	type event struct {
		at    int64
		i     int
		delta int
	}
	evs := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		evs = append(evs, event{s.start, i, 1}, event{s.end, i, -1})
	}
	// At equal times, starts go first, so an empty span still closes.
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].at != evs[b].at {
			return evs[a].at < evs[b].at
		}
		return evs[a].delta > evs[b].delta
	})

	share := make([]float64, len(spans))
	runningKids := make([]int, len(spans))
	active := make(map[int]bool)
	var unattr float64
	prev := start
	for k := 0; k <= len(evs); k++ {
		at := end
		if k < len(evs) {
			at = evs[k].at
		}
		if dt := float64(at-prev) / 1e9; dt > 0 {
			var busy, waiting []int
			for i := range active {
				if runningKids[i] > 0 {
					continue
				}
				if spans[i].wait {
					waiting = append(waiting, i)
				} else {
					busy = append(busy, i)
				}
			}
			leaves := busy
			if len(leaves) == 0 {
				leaves = waiting
			}
			if len(leaves) == 0 {
				unattr += dt
			}
			for _, i := range leaves {
				share[i] += dt / float64(len(leaves))
			}
			prev = at
		}
		if k == len(evs) {
			break
		}
		e := evs[k]
		if e.delta > 0 {
			active[e.i] = true
		} else {
			delete(active, e.i)
		}
		if p := parent[e.i]; p >= 0 {
			runningKids[p] += e.delta
		}
	}

	a := attribution{
		wall:         float64(end-start) / 1e9,
		self:         make(map[string]float64),
		unattributed: unattr,
		busy:         make(map[string]float64),
		durs:         make(map[string][]float64),
	}
	for i, s := range spans {
		selfNs := s.end - s.start - childNs[i]
		frac := 0.0
		if s.dtmNs > 0 && selfNs > 0 {
			frac = min(float64(s.dtmNs)/float64(selfNs), 1)
		}
		a.self[s.layer] += share[i] * (1 - frac)
		a.self[layerDTM] += share[i] * frac
		if !s.wait {
			a.busy[s.layer] += float64(selfNs-s.dtmNs) / 1e9
			a.durs[s.layer] = append(a.durs[s.layer], float64(s.end-s.start)/1e9)
		}
		a.busy[layerDTM] += float64(s.dtmNs) / 1e9
	}
	return a
}

// recordAttribution stores the attribution as per-layer metrics, checking
// that the shares add up to the traced wall time.
func (b *bench) recordAttribution(a attribution, untracedWall float64) {
	names := map[string]string{
		layerLevel1:     "level1.build_s",
		layerLevel2:     "level2.step_s",
		layerDTM:        "dtm.decide_s",
		layerPrefixWait: "prefix.wait_s",
		layerSweep:      "sweep.self_s",
		layerSeglog:     "seglog.append_s",
		layerHTTPServer: "http.server_s",
		layerHTTPClient: "http.client_s",
		layerPlatform:   "platform.run_s",
		layerExp:        "exp.self_s",
	}
	sum := a.unattributed
	for layer, s := range a.self {
		name, ok := names[layer]
		if !b.check(ok, "span in unknown layer %q", layer) {
			continue
		}
		b.layer[name] = s
		sum += s
		b.check(s >= 0, "negative self time %g s in %s", s, layer)
	}
	b.check(abs(sum-a.wall) <= 1e-6*max(a.wall, 1),
		"layer self times plus unattributed (%g s) differ from traced wall time %g s", sum, a.wall)
	b.layer["traced_wall_s"] = a.wall
	b.layer["unattributed_s"] = a.unattributed
	b.layer["trace_overhead_s"] = a.wall - untracedWall
	b.layer["level1.build_ms_p50"] = median(a.durs[layerLevel1]) * 1e3
	if w := b.layer["level2.windows"]; w > 0 {
		b.layer["level2.ns_per_window"] = a.busy[layerLevel2] / w * 1e9
	}
	fmt.Fprintf(b.opts.log, "traced unit: wall %.3f s, unattributed %.3f s, overhead %+.3f s\n",
		a.wall, a.unattributed, a.wall-untracedWall)
	layers := make([]string, 0, len(a.self))
	for l := range a.self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(b.opts.log, "  %-12s self %8.3f s\n", l, a.self[l])
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// timedBuilder is a shared level-1 memo behind per-run trace stores:
// it builds each design point once, timing the build, and records runs
// that wait for an in-flight build of the same point as waits.
type timedBuilder struct {
	tr    *tracer
	inner trace.Builder

	mu       sync.Mutex
	recs     map[trace.DesignPoint]trace.Rates
	inflight map[trace.DesignPoint]chan struct{}
	builds   int
}

func newTimedBuilder(tr *tracer, inner trace.Builder) *timedBuilder {
	return &timedBuilder{
		tr: tr, inner: inner,
		recs:     make(map[trace.DesignPoint]trace.Rates),
		inflight: make(map[trace.DesignPoint]chan struct{}),
	}
}

// preload copies every record of a warm store, so the traced unit sees
// the same warm traces as the measured one.
func (b *timedBuilder) preload(s *trace.Store) {
	s.Range(func(r trace.Rates) bool {
		b.recs[r.Point] = r
		return true
	})
}

// Build implements trace.Builder.
func (b *timedBuilder) Build(dp trace.DesignPoint) (trace.Rates, error) {
	for {
		b.mu.Lock()
		if r, ok := b.recs[dp]; ok {
			b.mu.Unlock()
			return r, nil
		}
		if ch, ok := b.inflight[dp]; ok {
			b.mu.Unlock()
			_, sp := b.tr.begin(nil, layerLevel1)
			sp.wait = true
			<-ch
			sp.end()
			continue // the builder failed if the record is still absent
		}
		ch := make(chan struct{})
		b.inflight[dp] = ch
		b.builds++
		b.mu.Unlock()

		_, sp := b.tr.begin(nil, layerLevel1)
		r, err := b.inner.Build(dp)
		sp.end()
		b.mu.Lock()
		delete(b.inflight, dp)
		if err == nil {
			b.recs[dp] = r
		}
		b.mu.Unlock()
		close(ch)
		return r, err
	}
}

func (b *timedBuilder) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.builds
}

// newSimLevel1 is the level-1 builder core.NewSystem gives a system with
// configuration cfg.
func newSimLevel1(cfg core.Config) *sim.Level1 {
	l1 := sim.NewLevel1(cfg.Seed)
	l1.Params = cfg.Params
	if len(cfg.DVFS) > 0 {
		l1.MaxFreqGHz = cfg.DVFS[0].FreqGHz
	}
	return l1
}

// dtmSample is how many decisions one timed decision stands for. A
// decision costs less than reading the clock twice, and runs take
// millions of them, so timing each one would mostly measure the timer.
const dtmSample = 16

// timerNs is what an empty timed interval reads: the clock overhead a
// timed decision's duration includes.
var timerNs = func() int64 {
	const n = 1 << 16
	var sum time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sum += time.Since(t0)
	}
	return int64(sum) / n
}()

// timedPolicy times every dtmSample-th decision of the policy it wraps,
// net of the clock overhead, and adds it, scaled, to the level-2 span
// the run belongs to.
type timedPolicy struct {
	inner dtm.Policy
	sp    *openSpan
}

func (p *timedPolicy) Name() string { return p.inner.Name() }
func (p *timedPolicy) Reset()       { p.inner.Reset() }

func (p *timedPolicy) Decide(in dtm.Input) dtm.Action {
	p.sp.dtmN++
	if p.sp.dtmN%dtmSample != 0 {
		return p.inner.Decide(in)
	}
	t0 := time.Now()
	act := p.inner.Decide(in)
	p.sp.dtmNs += dtmSample * max(int64(time.Since(t0))-timerNs, 0)
	return act
}

// tracedBackend executes the engine's runs from public pieces, with
// timing around each layer. It implements sweep.SpecBackend and
// prefix.Builder.
type tracedBackend struct {
	tr     *tracer
	eng    *sweep.Engine
	cfg    core.Config
	l1     *timedBuilder
	sharer *prefix.Sharer // nil: every run replays cold

	windows, decisions, appendErrs atomic.Int64
}

func newTracedBackend(tr *tracer, eng *sweep.Engine, l1 *timedBuilder, share bool) *tracedBackend {
	b := &tracedBackend{tr: tr, eng: eng, cfg: eng.System().Config(), l1: l1}
	if share {
		b.sharer = prefix.New(b)
	}
	return b
}

// RunSpec implements sweep.SpecBackend.
func (b *tracedBackend) RunSpec(ctx context.Context, spec sweep.Spec) (sim.MEMSpotResult, sweep.RunInfo, error) {
	ctx, sp := b.tr.begin(ctx, layerLevel2)
	defer func() {
		b.decisions.Add(sp.dtmN)
		sp.end()
	}()
	info := sweep.RunInfo{Outcome: sweep.Built}
	waited := b.sharer == nil
	newRun := func() (core.RunSpec, error) {
		if !waited {
			// A prefix follower waits for its group's leader before it
			// first resolves its spec.
			waited = true
			b.tr.addWait(sp, layerPrefixWait, sp.start, b.tr.now())
		}
		rs, err := b.eng.Resolve(spec)
		if err != nil {
			return rs, err
		}
		rs.Policy = &timedPolicy{inner: rs.Policy, sp: sp}
		return rs, nil
	}
	if b.sharer != nil {
		group := spec
		group.Policy = "*"
		res, err := b.sharer.Run(ctx, string(b.eng.Key(group)), newRun)
		return res, info, err
	}
	rs, err := newRun()
	if err != nil {
		return sim.MEMSpotResult{}, info, err
	}
	ms, err := b.NewRun(rs)
	if err != nil {
		return sim.MEMSpotResult{}, info, err
	}
	res, err := ms.RunCtx(ctx)
	b.windows.Add(ms.StepsTaken())
	return res, info, err
}

// NewRun implements prefix.Builder with the mapping core.System.NewRun
// applies, over a per-run trace store backed by the timed level-1 memo.
func (b *tracedBackend) NewRun(rs core.RunSpec) (*sim.MEMSpot, error) {
	if rs.Policy == nil {
		return nil, fmt.Errorf("perfbench: run spec needs a policy")
	}
	return sim.NewMEMSpot(memspotConfig(b.cfg, rs), trace.NewStore(b.l1))
}

// persistCheckpoints appends every completed prefix group to a segment
// log in dir, as an engine with a segment log does (sweep's
// appendCheckpoint: a gob-encoded prefix.GroupRecord, at most 8 MiB,
// record kind 3), so the traced unit pays the same persistence cost.
func (b *tracedBackend) persistCheckpoints(dir string) (*sweep.SegmentLog, error) {
	const maxRecordBytes, recordCheckpoint = 8 << 20, 3
	l, err := sweep.OpenSegmentLog(dir)
	if err != nil {
		return nil, err
	}
	b.sharer.OnGroupComplete(func(rec prefix.GroupRecord) {
		_, sp := b.tr.begin(nil, layerSeglog)
		defer sp.end()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
			b.appendErrs.Add(1)
			return
		}
		if buf.Len() > maxRecordBytes {
			return
		}
		if err := l.Append(recordCheckpoint, buf.Bytes()); err != nil {
			b.appendErrs.Add(1)
		}
	})
	return l, nil
}

// level2Windows is the number of windows the traced runs stepped.
func (b *tracedBackend) level2Windows() int64 {
	if b.sharer != nil {
		return b.sharer.Stats().StepsSimulated
	}
	return b.windows.Load()
}

// memspotConfig mirrors core.System.NewRun: the level-2 configuration a
// system with configuration cfg builds for rs.
func memspotConfig(cfg core.Config, rs core.RunSpec) sim.MEMSpotConfig {
	amb := fbconfig.AmbientIsolated
	if rs.Model == core.Integrated {
		amb = fbconfig.AmbientIntegrated
	}
	if rs.PsiXi != 0 {
		amb.PsiXi = rs.PsiXi
	}
	lim := cfg.Limits
	if rs.Limits.AMBTDP != 0 {
		lim = rs.Limits
	}
	interval := cfg.Interval
	if rs.Interval != 0 {
		interval = rs.Interval
	}
	win := min(interval, 0.01)
	scale := cfg.InstrScale
	if scale == 0 {
		scale = 1
	}
	if rs.InstrScale > 0 {
		scale *= rs.InstrScale
	}
	return sim.MEMSpotConfig{
		Mix:          rs.Mix,
		Replicas:     cfg.Replicas,
		Policy:       rs.Policy,
		Cooling:      rs.Cooling,
		Ambient:      amb,
		Limits:       lim,
		Params:       cfg.Params,
		CPU:          cfg.CPU,
		DVFS:         cfg.DVFS,
		WindowS:      win,
		DTMIntervalS: interval,
		InstrScale:   scale,
		ExactThermal: cfg.ExactThermal,
	}
}
