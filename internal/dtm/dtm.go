// Package dtm implements the dynamic thermal management policies of the
// paper: the two pre-existing schemes DTM-TS (thermal shutdown) and
// DTM-BW (bandwidth throttling), the two proposed schemes DTM-ACG
// (adaptive core gating) and DTM-CDVFS (coordinated DVFS), the Chapter 5
// combination DTM-COMB, and PID-controlled variants of BW/ACG/CDVFS
// (§4.2.3). A policy observes sensor temperatures once per DTM interval
// and outputs an Action. Both level-2 loops decide only through a
// Policy: the Chapter 4 simulator (sim.MEMSpot) maps the action onto a
// level-1 design point, and the Chapter 5 platform emulator
// (platform.Server) runs its Table 5.1 levels as NewTable policies.
package dtm

import (
	"fmt"
	"math"

	"dramtherm/internal/fbconfig"
	"dramtherm/internal/pid"
)

// Action is the running state a policy requests.
type Action struct {
	// MemOff stops all memory transactions (thermal shutdown / level L5).
	MemOff bool
	// BWCapGBps caps memory bandwidth; +Inf means no cap.
	BWCapGBps float64
	// ActiveCores is the number of ungated cores (DTM-ACG); the machine's
	// core count means all active.
	ActiveCores int
	// FreqIndex indexes the platform's DVFS table (0 = fastest).
	FreqIndex int
}

// Input is what a policy observes each interval.
type Input struct {
	AMB  fbconfig.Celsius // hottest AMB sensor reading
	DRAM fbconfig.Celsius // hottest DRAM sensor reading
	Now  float64          // seconds since run start
	Dt   float64          // seconds since previous decision
}

// Policy decides a running state each DTM interval.
type Policy interface {
	Name() string
	Decide(in Input) Action
	Reset()
}

// Levels holds the thermal emergency thresholds of Table 4.3: the
// boundaries between levels L1..L5 for the AMB and DRAM sensors. Five
// levels need four ascending boundaries each.
type Levels struct {
	AMB  [4]fbconfig.Celsius
	DRAM [4]fbconfig.Celsius
}

// DefaultLevels reproduces Table 4.3 for the chosen FBDIMM
// (AMB TDP 110 °C, DRAM TDP 85 °C).
func DefaultLevels() Levels {
	return Levels{
		AMB:  [4]fbconfig.Celsius{108.0, 109.0, 109.5, 110.0},
		DRAM: [4]fbconfig.Celsius{83.0, 84.0, 84.5, 85.0},
	}
}

// LevelsForTDP shifts the default level boundaries so the highest
// boundary equals the given TDPs, preserving the Table 4.3 margins. Used
// by the TRP/TDP sensitivity experiments.
func LevelsForTDP(ambTDP, dramTDP fbconfig.Celsius) Levels {
	d := DefaultLevels()
	var out Levels
	for i := 0; i < 4; i++ {
		out.AMB[i] = d.AMB[i] + (ambTDP - 110.0)
		out.DRAM[i] = d.DRAM[i] + (dramTDP - 85.0)
	}
	return out
}

// Level returns the emergency level 1..5 implied by the two sensor
// readings: the maximum of the per-sensor levels, since either device
// overheating is an emergency.
func (l Levels) Level(amb, dram fbconfig.Celsius) int {
	return maxInt(levelOf(amb, l.AMB[:]), levelOf(dram, l.DRAM[:]))
}

func levelOf(t fbconfig.Celsius, bounds []fbconfig.Celsius) int {
	for i, b := range bounds {
		if t < b {
			return i + 1
		}
	}
	return len(bounds) + 1
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// NoCap is the uncapped bandwidth value.
func NoCap() float64 { return math.Inf(1) }

// ---------------------------------------------------------------------------
// DTM-TS: thermal shutdown with TDP/TRP hysteresis (§4.2.1).

// TS is the thermal-shutdown policy.
type TS struct {
	Limits fbconfig.ThermalLimits
	Cores  int
	off    bool
}

// NewTS builds DTM-TS with the given limits for a machine with cores
// cores.
func NewTS(lim fbconfig.ThermalLimits, cores int) *TS {
	return &TS{Limits: lim, Cores: cores}
}

// Name implements Policy.
func (p *TS) Name() string { return "DTM-TS" }

// Reset implements Policy.
func (p *TS) Reset() { p.off = false }

// Decide implements Policy: shut down at TDP, release at TRP.
func (p *TS) Decide(in Input) Action {
	if in.AMB >= p.Limits.AMBTDP || in.DRAM >= p.Limits.DRAMTDP {
		p.off = true
	} else if in.AMB < p.Limits.AMBTRP && in.DRAM < p.Limits.DRAMTRP {
		p.off = false
	}
	return Action{MemOff: p.off, BWCapGBps: NoCap(), ActiveCores: p.Cores, FreqIndex: 0}
}

// ---------------------------------------------------------------------------
// Level-table policies: BW, ACG, CDVFS, COMB share the structure "read
// the emergency level, apply the level's setting" (Table 4.3/5.1), with
// TS-style hysteresis at the highest level (memory stays off until both
// sensors drop a release margin below their TDPs).

// levelPolicy is the shared machinery.
type levelPolicy struct {
	name    string
	levels  Levels
	actions []Action // one per level, len 5
	release fbconfig.Celsius
	off     bool
}

func (p *levelPolicy) Name() string { return p.name }
func (p *levelPolicy) Reset()       { p.off = false }

func (p *levelPolicy) Decide(in Input) Action {
	lv := p.levels.Level(in.AMB, in.DRAM)
	if lv >= len(p.actions)+1 {
		lv = len(p.actions)
	}
	top := p.actions[len(p.actions)-1]
	if top.MemOff {
		// Hysteresis on the shutdown level.
		if lv == len(p.actions) {
			p.off = true
		} else if in.AMB < p.levels.AMB[3]-p.release && in.DRAM < p.levels.DRAM[3]-p.release {
			p.off = false
		}
		if p.off {
			return top
		}
		if lv == len(p.actions) {
			lv--
		}
	}
	return p.actions[lv-1]
}

// NewBW builds DTM-BW with Table 4.3 caps: no limit, 19.2, 12.8,
// 6.4 GB/s, off.
func NewBW(levels Levels, cores int) Policy {
	return &levelPolicy{
		name:   "DTM-BW",
		levels: levels,
		actions: []Action{
			{BWCapGBps: NoCap(), ActiveCores: cores},
			{BWCapGBps: 19.2, ActiveCores: cores},
			{BWCapGBps: 12.8, ActiveCores: cores},
			{BWCapGBps: 6.4, ActiveCores: cores},
			{MemOff: true, BWCapGBps: 0, ActiveCores: cores},
		},
		release: 1.0,
	}
}

// NewACG builds DTM-ACG with Table 4.3 core counts 4,3,2,1,0.
func NewACG(levels Levels, cores int) Policy {
	acts := []Action{
		{BWCapGBps: NoCap(), ActiveCores: cores},
		{BWCapGBps: NoCap(), ActiveCores: cores - 1},
		{BWCapGBps: NoCap(), ActiveCores: cores - 2},
		{BWCapGBps: NoCap(), ActiveCores: 1},
		{MemOff: true, BWCapGBps: 0, ActiveCores: 0},
	}
	return &levelPolicy{name: "DTM-ACG", levels: levels, actions: acts, release: 1.0}
}

// NewCDVFS builds DTM-CDVFS with Table 4.3 frequency levels (indexes into
// the platform's DVFS table; 3.2/2.4/1.6/0.8 GHz in Chapter 4).
func NewCDVFS(levels Levels, cores int) Policy {
	return &levelPolicy{
		name:   "DTM-CDVFS",
		levels: levels,
		actions: []Action{
			{BWCapGBps: NoCap(), ActiveCores: cores, FreqIndex: 0},
			{BWCapGBps: NoCap(), ActiveCores: cores, FreqIndex: 1},
			{BWCapGBps: NoCap(), ActiveCores: cores, FreqIndex: 2},
			{BWCapGBps: NoCap(), ActiveCores: cores, FreqIndex: 3},
			{MemOff: true, BWCapGBps: 0, ActiveCores: cores, FreqIndex: 3},
		},
		release: 1.0,
	}
}

// NewCOMB builds DTM-COMB for the Chapter 4 machine: the §5.2.2
// combination policy back-ported to the simulator — each emergency level
// both gates a core and steps DVFS down, shedding traffic and processor
// heat at once.
func NewCOMB(levels Levels, cores int) Policy {
	return &levelPolicy{
		name:   "DTM-COMB",
		levels: levels,
		actions: []Action{
			{BWCapGBps: NoCap(), ActiveCores: cores, FreqIndex: 0},
			{BWCapGBps: NoCap(), ActiveCores: cores - 1, FreqIndex: 1},
			{BWCapGBps: NoCap(), ActiveCores: cores - 2, FreqIndex: 2},
			{BWCapGBps: NoCap(), ActiveCores: 1, FreqIndex: 3},
			{MemOff: true, BWCapGBps: 0, ActiveCores: 0, FreqIndex: 3},
		},
		release: 1.0,
	}
}

// NewTable builds a policy from an explicit action table: the Chapter 5
// platforms build their Table 5.1 policies with it (four running levels
// plus a safety level, release 0). actions[i] applies at emergency level
// i+1; a reading above the table's last level applies the last entry.
func NewTable(name string, levels Levels, actions []Action, release fbconfig.Celsius) (Policy, error) {
	if len(actions) == 0 {
		return nil, fmt.Errorf("dtm: empty action table for %s", name)
	}
	return &levelPolicy{name: name, levels: levels, actions: actions, release: release}, nil
}

// ---------------------------------------------------------------------------
// PID-wrapped policies (§4.2.3): one controller per sensor; the
// controller of the currently binding sensor chooses among the same
// discrete settings.

// PIDPolicy wraps a setting table with two PID controllers.
type PIDPolicy struct {
	name    string
	actions []Action // ordered fastest..slowest, no MemOff entry
	ambC    *pid.Controller
	dramC   *pid.Controller
	limits  fbconfig.ThermalLimits
	off     bool
}

// NewPID wraps the action table (fastest first, no shutdown entry —
// shutdown is enforced by the TDP safety net) with the Chapter 4 PID
// constants. kind is used in the policy name, e.g. "DTM-ACG+PID".
func NewPID(kind string, actions []Action, limits fbconfig.ThermalLimits) (*PIDPolicy, error) {
	if len(actions) == 0 {
		return nil, fmt.Errorf("dtm: empty PID action table")
	}
	span := float64(len(actions))
	ac := pid.AMBDefaults()
	ac.OutputMin, ac.OutputMax = -span, span
	dc := pid.DRAMDefaults()
	dc.OutputMin, dc.OutputMax = -span, span
	ambC, err := pid.New(ac)
	if err != nil {
		return nil, err
	}
	dramC, err := pid.New(dc)
	if err != nil {
		return nil, err
	}
	return &PIDPolicy{
		name:    kind + "+PID",
		actions: actions,
		ambC:    ambC,
		dramC:   dramC,
		limits:  limits,
	}, nil
}

// Name implements Policy.
func (p *PIDPolicy) Name() string { return p.name }

// Reset implements Policy.
func (p *PIDPolicy) Reset() {
	p.ambC.Reset()
	p.dramC.Reset()
	p.off = false
}

// Decide implements Policy.
func (p *PIDPolicy) Decide(in Input) Action {
	// Safety net: never exceed the TDP (overshoot handling, §4.4.2).
	if in.AMB >= p.limits.AMBTDP || in.DRAM >= p.limits.DRAMTDP {
		p.off = true
	} else if in.AMB < p.limits.AMBTRP && in.DRAM < p.limits.DRAMTRP {
		p.off = false
	}
	if p.off {
		a := p.actions[len(p.actions)-1]
		a.MemOff = true
		return a
	}

	ao := p.ambC.Update(in.AMB, in.Dt)
	do := p.dramC.Update(in.DRAM, in.Dt)
	// The binding sensor is the one closer to (or further past) its
	// target: lower controller output = more throttling demanded.
	out, ctl := ao, p.ambC
	if do < ao {
		out, ctl = do, p.dramC
	}
	lv := ctl.Level(out, len(p.actions))
	return p.actions[lv]
}

// ActionsBW returns the DTM-BW setting ladder (for PID wrapping).
func ActionsBW(cores int) []Action {
	return []Action{
		{BWCapGBps: NoCap(), ActiveCores: cores},
		{BWCapGBps: 19.2, ActiveCores: cores},
		{BWCapGBps: 12.8, ActiveCores: cores},
		{BWCapGBps: 6.4, ActiveCores: cores},
	}
}

// ActionsACG returns the DTM-ACG setting ladder.
func ActionsACG(cores int) []Action {
	out := make([]Action, 0, cores)
	for n := cores; n >= 1; n-- {
		out = append(out, Action{BWCapGBps: NoCap(), ActiveCores: n})
	}
	return out
}

// ActionsCDVFS returns the DTM-CDVFS setting ladder for nLevels DVFS
// levels.
func ActionsCDVFS(cores, nLevels int) []Action {
	out := make([]Action, 0, nLevels)
	for i := 0; i < nLevels; i++ {
		out = append(out, Action{BWCapGBps: NoCap(), ActiveCores: cores, FreqIndex: i})
	}
	return out
}

// NoLimit is the pseudo-policy of the paper's "no thermal limit" baseline.
type NoLimit struct{ Cores int }

// Name implements Policy.
func (p *NoLimit) Name() string { return "No-limit" }

// Reset implements Policy.
func (p *NoLimit) Reset() {}

// Decide implements Policy.
func (p *NoLimit) Decide(Input) Action {
	return Action{BWCapGBps: NoCap(), ActiveCores: p.Cores, FreqIndex: 0}
}
