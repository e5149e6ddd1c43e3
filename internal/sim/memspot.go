// MEMSpot: the level-2 power/thermal simulator of §4.3.1. It consumes
// trace.Rates records through a Store (building them on demand via
// Level1), steps the Chapter 3 power and thermal models in fixed windows,
// runs the workload batch to completion, and invokes the DTM policy at
// every DTM interval.

package sim

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"dramtherm/internal/dtm"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/power"
	"dramtherm/internal/thermal"
	"dramtherm/internal/trace"
	"dramtherm/internal/workload"
)

const (
	// dtmOverheadS is the processor time one DTM invocation costs.
	dtmOverheadS = 25e-6
	// rotatePeriodS is the DTM-ACG round-robin rotation period (§4.2.2).
	rotatePeriodS = 0.1
	// recordPeriodS is the temperature-trace sampling period.
	recordPeriodS = 1.0
)

// MEMSpotConfig configures one level-2 run.
type MEMSpotConfig struct {
	Mix      workload.Mix
	Replicas int // copies of each application in the batch (paper: 50)
	Policy   dtm.Policy

	Cooling fbconfig.Cooling
	Ambient fbconfig.Ambient
	Limits  fbconfig.ThermalLimits
	Params  fbconfig.SimParams
	CPU     fbconfig.CPUPower
	DVFS    []fbconfig.DVFSLevel

	WindowS      float64 // simulation window (default 10 ms)
	DTMIntervalS float64 // policy invocation period (default 10 ms)
	MaxSeconds   float64 // safety bound (default 50,000 s)
	InstrScale   float64 // scales application lengths (tests use <1)

	// SensorSeed enables sensor noise when nonzero (Chapter 5 platform
	// runs); zero keeps the Chapter 4 noiseless simulation sensors.
	SensorSeed int64

	// ExactThermal selects the per-window reference path: the retained
	// per-step math.Exp thermal math (thermal.Model.AdvanceExact) instead
	// of the cached-decay fast path; a design point re-resolved and
	// fetched from the store every window, where the fast path
	// re-resolves only when the action, the gated set or the jobs change
	// and asks the run's design-point memo first; the hottest
	// temperatures recomputed at each use instead of once per window;
	// and residency written into the result maps every window instead of
	// through cells. The two paths agree bit-for-bit today; the flag
	// exists so the differential harness (internal/simtest) can drive
	// both through the identical simulation stack.
	ExactThermal bool
}

// applyDefaults fills zero fields.
func (c *MEMSpotConfig) applyDefaults() {
	if c.Replicas == 0 {
		c.Replicas = 50
	}
	if c.WindowS == 0 {
		c.WindowS = 0.01
	}
	if c.DTMIntervalS == 0 {
		c.DTMIntervalS = 0.01
	}
	if c.MaxSeconds == 0 {
		c.MaxSeconds = 50000
	}
	if c.InstrScale == 0 {
		c.InstrScale = 1
	}
	if c.Params.Cores == 0 {
		c.Params = fbconfig.DefaultSimParams
	}
	if c.CPU.MaxWatt == 0 {
		c.CPU = fbconfig.DefaultCPUPower
	}
	if len(c.DVFS) == 0 {
		c.DVFS = fbconfig.DTMDVFS
	}
	if c.Limits.AMBTDP == 0 {
		c.Limits = fbconfig.DefaultLimits
	}
}

// MEMSpotResult aggregates one run: a Chapter 4 simulation, or a
// Chapter 5 platform run (internal/platform), which sets the last three
// fields instead of the DRAM, ambient and residency ones.
type MEMSpotResult struct {
	Seconds   float64
	TimedOut  bool
	Completed int // jobs finished

	ReadGB, WriteGB float64
	L2Misses        float64
	L2Accesses      float64

	MemEnergyJ float64
	CPUEnergyJ float64

	MaxAMB, MaxDRAM float64
	Overshoots      int // episodes in which a DTM decision observed T ≥ TDP

	// Sampled once per second of simulated time.
	AMBTrace     []float64
	DRAMTrace    []float64
	AmbientTrace []float64

	// Residency in seconds.
	TimeAtCores map[int]float64
	TimeAtFreq  map[int]float64
	TimeMemOff  float64

	// Platform runs only: mean CPU power and memory inlet (processor
	// exhaust) temperature, and seconds at each Table 5.1 level.
	AvgCPUWatt float64    `json:",omitzero"`
	AvgInletC  float64    `json:",omitzero"`
	LevelTimeS [5]float64 `json:",omitzero"`
}

// TotalTrafficGB returns read+write traffic.
func (r MEMSpotResult) TotalTrafficGB() float64 { return r.ReadGB + r.WriteGB }

// TotalEnergyJ returns CPU+DRAM energy (Fig. 5.11's unit).
func (r MEMSpotResult) TotalEnergyJ() float64 { return r.CPUEnergyJ + r.MemEnergyJ }

// job is one batch entry.
type job struct {
	prof      *workload.Profile
	remaining float64
	total     float64
}

// MEMSpot is the level-2 simulator instance.
type MEMSpot struct {
	cfg   MEMSpotConfig
	store *trace.Store

	model   *thermal.Model
	amb     *thermal.AmbientModel
	sensor  *thermal.Sensor
	queue   []*workload.Profile
	cores   []*job
	act     dtm.Action
	hot     bool // currently in an overshoot episode
	rot     int
	now     float64
	nextDTM float64
	nextRot float64
	nextRec float64

	// Hot-loop scratch state, reused across windows so the steady-state
	// step allocates nothing: the precomputed channel power model, the
	// power/gating/name/activity buffers, and the run's design-point
	// memo (see lookup), which keeps re-resolutions off the store's lock
	// and key hashing.
	chanModel   *power.ChannelModel
	pwBuf       []power.DIMMPower
	gatedBuf    []bool
	namesBuf    []string
	sortedBuf   []string
	activityBuf []thermal.CoreActivity
	dps         [dpMemoSize]dpEntry
	dpTick      uint64

	// The hottest AMB and DRAM temperatures of the thermal state, taken
	// once per window after Advance; hotOK marks them current.
	hotAMB, hotDRAM float64
	hotOK           bool

	// The resolved window: what resolve derives from the DTM action, the
	// gated set and the per-core jobs. stale marks a change to one of
	// those inputs; step re-resolves only then.
	stale    bool
	freqIdx  int
	lv       fbconfig.DVFSLevel
	running  []int            // ungated busy cores, in core order
	appRates []trace.AppRates // appRates[k]: rates of the job on core running[k]
	cpuW     float64

	// The residency entries the current windows add to (see resCell).
	coresCell, freqCell resCell

	steps     int64 // windows on the simulated timeline (inherited on Restore)
	decisions int   // DTM decisions taken so far; index of the next decision

	res MEMSpotResult
}

// NewMEMSpot builds a run over the given rate store.
func NewMEMSpot(cfg MEMSpotConfig, store *trace.Store) (*MEMSpot, error) {
	cfg.applyDefaults()
	if store == nil {
		return nil, fmt.Errorf("sim: nil trace store")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("sim: nil policy")
	}
	profs, err := cfg.Mix.Profiles()
	if err != nil {
		return nil, err
	}

	m := &MEMSpot{cfg: cfg, store: store}
	inlet := cfg.Ambient.Inlet(cfg.Cooling)
	m.amb = thermal.NewAmbientModel(cfg.Ambient, inlet)
	idle := power.DIMMPower{
		AMB:  fbconfig.DefaultAMBPower.IdleOther,
		DRAM: fbconfig.DefaultDRAMPower.Static,
	}
	m.model = thermal.NewModel(cfg.Cooling, inlet, cfg.Params.DIMMsPerChannel, idle)
	if cfg.SensorSeed != 0 {
		m.sensor = thermal.NewSensor(rand.New(rand.NewSource(cfg.SensorSeed)))
	}
	cm, err := power.NewChannelModel(fbconfig.DefaultDRAMPower, fbconfig.DefaultAMBPower,
		power.EvenShares(cfg.Params.DIMMsPerChannel))
	if err != nil {
		return nil, err
	}
	m.chanModel = cm

	// Batch queue: Replicas rounds of the mix in round-robin order
	// (§4.3.2: jobs assigned to freed cores round-robin).
	for r := 0; r < cfg.Replicas; r++ {
		m.queue = append(m.queue, profs...)
	}
	m.cores = make([]*job, cfg.Params.Cores)
	for i := range m.cores {
		m.dispatch(i)
	}

	cfg.Policy.Reset()
	m.act = dtm.Action{BWCapGBps: dtm.NoCap(), ActiveCores: cfg.Params.Cores}
	m.res.TimeAtCores = make(map[int]float64)
	m.res.TimeAtFreq = make(map[int]float64)
	return m, nil
}

// dispatch pops the next job onto core i, if any.
func (m *MEMSpot) dispatch(i int) {
	m.stale = true
	if len(m.queue) == 0 {
		m.cores[i] = nil
		return
	}
	p := m.queue[0]
	m.queue = m.queue[1:]
	total := p.Instructions() * m.cfg.InstrScale
	m.cores[i] = &job{prof: p, remaining: total, total: total}
}

// done reports batch completion.
func (m *MEMSpot) done() bool {
	if len(m.queue) > 0 {
		return false
	}
	for _, j := range m.cores {
		if j != nil {
			return false
		}
	}
	return true
}

// gatedSet returns which cores are gated under the current action with
// round-robin rotation offset. The returned slice is scratch state
// valid until the next call.
func (m *MEMSpot) gatedSet() []bool {
	n := m.act.ActiveCores
	c := len(m.cores)
	if n > c {
		n = c
	}
	if n < 0 {
		n = 0
	}
	if cap(m.gatedBuf) < c {
		m.gatedBuf = make([]bool, c)
	}
	gated := m.gatedBuf[:c]
	for i := range gated {
		gated[i] = false
	}
	for k := 0; k < c-n; k++ {
		gated[(m.rot+k)%c] = true
	}
	return gated
}

// StepWindow advances the simulation by exactly one window. It is the
// per-timestep unit of the level-2 hot loop, exposed for the
// differential test harness (internal/simtest) and the pinned
// benchmarks (cmd/benchsnap); normal callers use RunCtx.
func (m *MEMSpot) StepWindow() error { return m.step() }

// Done reports whether the batch has completed (all jobs finished).
func (m *MEMSpot) Done() bool { return m.done() }

// Now returns the current simulated time in seconds.
func (m *MEMSpot) Now() float64 { return m.now }

// Window returns the simulation window length in seconds.
func (m *MEMSpot) Window() float64 { return m.cfg.WindowS }

// StepsTaken counts the windows on the simulated timeline so far,
// including windows inherited through Restore rather than executed here.
func (m *MEMSpot) StepsTaken() int64 { return m.steps }

// Decisions counts the DTM decisions taken so far — equally, the index
// of the next decision the policy will be asked for.
func (m *MEMSpot) Decisions() int { return m.decisions }

// RunCtx executes the batch to completion (or MaxSeconds) and returns
// the result. The simulation loop aborts between windows as soon as ctx
// is done, returning the context error and the partial result
// accumulated so far.
func (m *MEMSpot) RunCtx(ctx context.Context) (MEMSpotResult, error) {
	return m.RunHooked(ctx, nil)
}

// RunHooked is RunCtx with an optional hook fired at every DTM decision
// boundary, immediately before the window that takes the decision. The
// prefix-sharing layer (internal/sweep/prefix) uses it to snapshot the
// simulator between policy decisions; a hook error aborts the run. A nil
// hook makes RunHooked identical to RunCtx.
func (m *MEMSpot) RunHooked(ctx context.Context, hook func(*MEMSpot) error) (MEMSpotResult, error) {
	// Poll cancellation with a non-blocking receive on Done: ctx.Err
	// takes the context's mutex, and a sweep shares one context across
	// all of its workers.
	done := ctx.Done()
	for !m.done() {
		select {
		case <-done:
			return m.result(), ctx.Err()
		default:
		}
		if m.now >= m.cfg.MaxSeconds {
			m.res.TimedOut = true
			break
		}
		if hook != nil && m.now >= m.nextDTM {
			if err := hook(m); err != nil {
				return m.result(), err
			}
		}
		if err := m.step(); err != nil {
			return m.result(), err
		}
	}
	return m.result(), nil
}

// result writes the residency cells back and returns the accumulator,
// stamped with the simulated time.
func (m *MEMSpot) result() MEMSpotResult {
	m.flushResidency()
	m.res.Seconds = m.now
	return m.res
}

// step advances one window.
func (m *MEMSpot) step() error {
	win := m.cfg.WindowS
	overheadThisWindow := 0.0

	// DTM decision.
	if m.now >= m.nextDTM {
		ambR, dramR := m.hottest()
		if m.sensor != nil {
			ambR, dramR = m.sensor.Read(ambR), m.sensor.Read(dramR)
		}
		over := ambR >= m.cfg.Limits.AMBTDP || dramR >= m.cfg.Limits.DRAMTDP
		if over && !m.hot {
			m.res.Overshoots++
		}
		m.hot = over
		act := m.cfg.Policy.Decide(dtm.Input{
			AMB: ambR, DRAM: dramR, Now: m.now, Dt: m.cfg.DTMIntervalS,
		})
		if act != m.act {
			m.stale = true
		}
		m.act = act
		m.decisions++
		m.nextDTM += m.cfg.DTMIntervalS
		overheadThisWindow = dtmOverheadS
	}
	// ACG rotation for fairness (§4.2.2). The offset always advances,
	// but it moves the gated set only while some, not all, cores are
	// gated.
	if m.now >= m.nextRot {
		m.rot++
		m.nextRot += rotatePeriodS
		if n := m.act.ActiveCores; n > 0 && n < len(m.cores) {
			m.stale = true
		}
	}
	// The ExactThermal reference re-resolves every window.
	if m.stale || m.cfg.ExactThermal {
		if err := m.resolve(); err != nil {
			return err
		}
	}
	running, rates, lv := m.running, m.appRates, m.lv

	// Progress and traffic.
	effWin := win - overheadThisWindow
	if effWin < 0 {
		effWin = 0
	}
	var readG, writeG float64 // GB/s aggregates
	activity := m.activityBuf[:0]
	for k, i := range running {
		j := m.cores[i]
		ar := rates[k]
		if ar.InstrPerSec <= 0 {
			continue
		}
		progress := 1 - j.remaining/j.total
		mul := j.prof.PhaseMul(progress)
		den := 1 - ar.MemBoundFrac + ar.MemBoundFrac*mul
		if den <= 0 {
			den = 1
		}
		rate := ar.InstrPerSec / den
		ratio := rate / ar.InstrPerSec
		readG += ar.ReadGBps * mul * ratio
		writeG += ar.WriteGBps * mul * ratio
		m.res.L2Misses += ar.L2MissPerSec * mul * ratio * effWin
		m.res.L2Accesses += ar.L2AccessPerSec * mul * ratio * effWin
		j.remaining -= rate * effWin
		activity = append(activity, thermal.CoreActivity{
			Volt: lv.Volt, IPC: ar.IPCRef * ratio,
		})
		if j.remaining <= 0 {
			m.res.Completed++
			m.dispatch(i)
		}
	}
	m.activityBuf = activity
	m.res.ReadGB += readG * win
	m.res.WriteGB += writeG * win

	// Power: the precomputed channel model evaluates the same arithmetic
	// as power.ChannelWatts with even shares, without re-deriving the
	// share geometry or allocating per window.
	pw := m.chanModel.WattsInto(m.pwBuf[:0],
		readG/float64(m.cfg.Params.PhysicalChannels),
		writeG/float64(m.cfg.Params.PhysicalChannels))
	m.pwBuf = pw
	var memW float64
	for _, p := range pw {
		memW += (p.AMB + p.DRAM) * float64(m.cfg.Params.PhysicalChannels)
	}
	m.res.MemEnergyJ += memW * win

	m.res.CPUEnergyJ += m.cpuW * win

	// Thermal.
	m.hotOK = false
	if m.cfg.ExactThermal {
		m.model.Ambient = m.amb.AdvanceExact(activity, win)
		if err := m.model.AdvanceExact(pw, win); err != nil {
			return err
		}
	} else {
		m.model.Ambient = m.amb.Advance(activity, win)
		if err := m.model.Advance(pw, win); err != nil {
			return err
		}
	}
	hotAMB, hotDRAM := m.hottest()
	if hotAMB > m.res.MaxAMB {
		m.res.MaxAMB = hotAMB
	}
	if hotDRAM > m.res.MaxDRAM {
		m.res.MaxDRAM = hotDRAM
	}

	// Residency and traces.
	if m.act.MemOff {
		m.res.TimeMemOff += win
	}
	if m.cfg.ExactThermal {
		m.res.TimeAtCores[len(running)] += win
		m.res.TimeAtFreq[m.freqIdx] += win
	} else {
		m.coresCell.add(m.res.TimeAtCores, len(running), win)
		m.freqCell.add(m.res.TimeAtFreq, m.freqIdx, win)
	}
	if m.now >= m.nextRec {
		hotAMB, hotDRAM := m.hottest()
		m.res.AMBTrace = append(m.res.AMBTrace, hotAMB)
		m.res.DRAMTrace = append(m.res.DRAMTrace, hotDRAM)
		m.res.AmbientTrace = append(m.res.AmbientTrace, m.amb.T)
		m.nextRec += recordPeriodS
	}

	m.now += win
	m.steps++
	return nil
}

// resCell holds one residency-map entry while consecutive windows add to
// it, so a steady-state window adds to a float instead of assigning into
// the map. The cell loads the map's value on its first addition, so the
// sum is formed in the same order from the same value as per-window map
// updates; it is written back when its key changes and by flush. Only a
// cell some window added to is live, so a failed step creates no key.
type resCell struct {
	key  int
	val  float64
	live bool
}

// add accumulates win under key in res, through the cell.
func (c *resCell) add(res map[int]float64, key int, win float64) {
	if !c.live || c.key != key {
		c.flush(res)
		c.key, c.val, c.live = key, res[key], true
	}
	c.val += win
}

// flush writes a live cell back into res.
func (c *resCell) flush(res map[int]float64) {
	if c.live {
		res[c.key] = c.val
	}
}

// flushResidency brings the result's residency maps up to date.
func (m *MEMSpot) flushResidency() {
	m.coresCell.flush(m.res.TimeAtCores)
	m.freqCell.flush(m.res.TimeAtFreq)
}

// hottest returns the hottest AMB and DRAM temperatures of the thermal
// state. The fast path takes them once per window and reuses them until
// the next Advance; the ExactThermal reference recomputes them at each
// use.
func (m *MEMSpot) hottest() (amb, dram fbconfig.Celsius) {
	if m.hotOK {
		return m.hotAMB, m.hotDRAM
	}
	amb, dram = m.model.HottestAMB(), m.model.HottestDRAM()
	m.hotAMB, m.hotDRAM, m.hotOK = amb, dram, !m.cfg.ExactThermal
	return amb, dram
}

// resolve derives the window's design point from its inputs — the DTM
// action, the ACG rotation offset and the per-core jobs — and looks up
// the rates of every running job and the processor power.
func (m *MEMSpot) resolve() error {
	gated := m.gatedSet()
	freqIdx := m.act.FreqIndex
	if freqIdx < 0 {
		freqIdx = 0
	}
	if freqIdx >= len(m.cfg.DVFS) {
		freqIdx = len(m.cfg.DVFS) - 1
	}
	m.freqIdx, m.lv = freqIdx, m.cfg.DVFS[freqIdx]

	// Running combination → design point → rates.
	names := m.namesBuf[:0]
	running := m.running[:0]
	for i, j := range m.cores {
		if j != nil && !gated[i] {
			names = append(names, j.prof.Name)
			running = append(running, i)
		}
	}
	m.namesBuf, m.running = names, running
	var rates trace.Rates
	var err error
	if m.cfg.ExactThermal {
		rates, err = m.store.Get(m.designPoint(names))
	} else {
		rates, err = m.lookup(names)
	}
	if err != nil {
		return err
	}
	ar := m.appRates[:0]
	for _, name := range names {
		ar = append(ar, rates.PerApp[name])
	}
	m.appRates = ar
	m.cpuW = m.cpuWatts(m.lv, len(running))
	m.stale = false
	return nil
}

// designPoint is the design point of the running names under the
// resolved frequency and the current action.
func (m *MEMSpot) designPoint(names []string) trace.DesignPoint {
	return trace.DesignPoint{
		Apps:      trace.CanonApps(names),
		FreqGHz:   m.lv.FreqGHz,
		BWCapGBps: m.act.BWCapGBps,
		MemOff:    m.act.MemOff,
	}
}

// dpMemoSize bounds a run's design-point memo. A run's working set is
// the running combination under each action and, while ACG gates some
// cores, each rotation of it: a few dozen points at most.
const dpMemoSize = 32

// dpEntry is one design point of the memo and its rates. The point is
// held in parts, the sorted names standing for its canonical Apps key,
// so a lookup compares without building that key. used is the tick of
// the entry's last use; 0 marks an empty entry.
type dpEntry struct {
	apps   []string
	freq   float64
	bwCap  float64
	memOff bool
	rates  trace.Rates
	used   uint64
}

// lookup returns the rates of the running names' design point from the
// run's memo, going to the store only for a point the memo does not
// hold and evicting the least recently used entry for it. Records are
// pure functions of their design point, so a memo hit returns what the
// store would. A hit takes no lock and allocates nothing.
func (m *MEMSpot) lookup(names []string) (trace.Rates, error) {
	sorted := append(m.sortedBuf[:0], names...)
	slices.Sort(sorted)
	m.sortedBuf = sorted
	freq, bwCap, memOff := m.lv.FreqGHz, m.act.BWCapGBps, m.act.MemOff
	m.dpTick++
	victim := &m.dps[0]
	for i := range m.dps {
		e := &m.dps[i]
		if e.used != 0 && e.freq == freq && e.bwCap == bwCap && e.memOff == memOff &&
			slices.Equal(e.apps, sorted) {
			e.used = m.dpTick
			return e.rates, nil
		}
		if e.used < victim.used {
			victim = e
		}
	}
	rates, err := m.store.Get(m.designPoint(names))
	if err != nil {
		return trace.Rates{}, err
	}
	*victim = dpEntry{
		apps: append(victim.apps[:0], sorted...), freq: freq, bwCap: bwCap, memOff: memOff,
		rates: rates, used: m.dpTick,
	}
	return rates, nil
}

// cpuWatts evaluates Table 4.4 for the current action.
func (m *MEMSpot) cpuWatts(lv fbconfig.DVFSLevel, runningCores int) float64 {
	if m.act.MemOff || runningCores == 0 {
		// Stalled or fully gated processor: HALT power.
		return m.cfg.CPU.IdleWatt
	}
	if m.act.FreqIndex > 0 {
		return power.CPUWatts(m.cfg.CPU, power.CPUState{
			ActiveCores: runningCores, TotalCores: len(m.cores),
			Level: lv, UseDVFS: true,
		})
	}
	return m.cfg.CPU.ActiveCoresWatt(runningCores)
}

// RunMix is the high-level helper: build MEMSpot, run it, return results.
func RunMix(cfg MEMSpotConfig, store *trace.Store) (MEMSpotResult, error) {
	ms, err := NewMEMSpot(cfg, store)
	if err != nil {
		return MEMSpotResult{}, err
	}
	return ms.RunCtx(context.Background())
}
