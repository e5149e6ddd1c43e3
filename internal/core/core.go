// Package core is the high-level engine of the library: it wires the
// level-1 architectural simulator, the trace store, the Chapter 3 power
// and thermal models and the DTM policies into a single System that runs
// workload mixes under a chosen policy and thermal configuration. The
// experiment drivers (internal/exp), the CLI tools and the examples all
// sit on top of this package.
package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"dramtherm/internal/dtm"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/sim"
	"dramtherm/internal/trace"
	"dramtherm/internal/workload"
)

// ThermalModelKind selects between §3.4 and §3.5 ambient handling.
type ThermalModelKind int

const (
	// Isolated is the §3.4 model: fixed DRAM ambient.
	Isolated ThermalModelKind = iota
	// Integrated is the §3.5 model: ambient pre-heated by the CPUs.
	Integrated
)

func (k ThermalModelKind) String() string {
	if k == Integrated {
		return "integrated"
	}
	return "isolated"
}

// Config parameterizes a System.
type Config struct {
	Params   fbconfig.SimParams
	Limits   fbconfig.ThermalLimits
	CPU      fbconfig.CPUPower
	DVFS     []fbconfig.DVFSLevel
	Replicas int     // batch copies per application (paper: 50)
	Seed     int64   // level-1 determinism seed
	Interval float64 // DTM interval in seconds (paper: 10 ms)
	// InstrScale shrinks application run lengths; tests use small values.
	InstrScale float64
	// ExactThermal routes level-2 runs through the per-window reference
	// path (sim.MEMSpotConfig.ExactThermal): the retained per-step
	// math.Exp thermal math instead of the cached-decay fast path, and a
	// design point re-resolved and residency written into the result
	// maps every window instead of only when its inputs change. The
	// differential harness (internal/simtest) uses it to compare whole
	// sweeps. The flag is part of the ConfigDigest, so results from the
	// two paths never share a cache scope.
	ExactThermal bool
}

// DefaultConfig returns the Chapter 4 configuration. Replicas defaults to
// 12 rather than the paper's 50 to keep a full experiment suite in the
// minutes range; the batch still spans dozens of thermal time constants,
// so normalized runtimes are insensitive to the difference (there is a
// sensitivity test for this).
func DefaultConfig() Config {
	return Config{
		Params:     fbconfig.DefaultSimParams,
		Limits:     fbconfig.DefaultLimits,
		CPU:        fbconfig.DefaultCPUPower,
		DVFS:       fbconfig.DTMDVFS,
		Replicas:   12,
		Seed:       1,
		Interval:   0.01,
		InstrScale: 1,
	}
}

// System owns a shared trace store so that every run reuses level-1
// results for design points it has already simulated.
type System struct {
	cfg   Config
	store *trace.Store
	l1    *sim.Level1
}

// NewSystem builds a System for cfg.
func NewSystem(cfg Config) *System {
	if cfg.Params.Cores == 0 {
		cfg = DefaultConfig()
	}
	l1 := sim.NewLevel1(cfg.Seed)
	l1.Params = cfg.Params
	if len(cfg.DVFS) > 0 {
		l1.MaxFreqGHz = cfg.DVFS[0].FreqGHz
	}
	return &System{cfg: cfg, store: trace.NewStore(l1), l1: l1}
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Store exposes the shared trace store.
func (s *System) Store() *trace.Store { return s.store }

// Level1Digest returns the digest of the level-1 builder behind Store
// (sim.Level1.Digest): the scope of the store's records.
func (s *System) Level1Digest() string { return s.l1.Digest() }

// RunSpec describes one level-2 run.
type RunSpec struct {
	Mix     workload.Mix
	Policy  dtm.Policy
	Cooling fbconfig.Cooling
	Model   ThermalModelKind
	// PsiXi overrides the integrated model's interaction coefficient when
	// nonzero (Fig. 4.13/4.14 sensitivity).
	PsiXi float64
	// Interval overrides the system DTM interval when nonzero (Fig. 4.11).
	Interval float64
	// Limits overrides the thermal limits when nonzero (TRP/TDP sweeps).
	Limits fbconfig.ThermalLimits
	// InstrScale multiplies the system's application-length scale when
	// nonzero: fractional values run the same mix at reduced fidelity
	// (adaptive search rungs), 1 is full fidelity.
	InstrScale float64
}

// ConfigDigest returns a short stable hash of the system configuration.
// Two systems with the same digest produce identical results for the
// same RunSpec, so the digest scopes cross-run caches (internal/sweep)
// and persisted state files.
func (s *System) ConfigDigest() string {
	// fmt renders maps in sorted key order, so the rendering — and with
	// it the digest — is deterministic for a given Config value.
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", s.cfg)))
	return hex.EncodeToString(sum[:8])
}

// RunCtx executes the spec and returns the MEMSpot result, uncached:
// it is the run function behind the sweep engine's cache
// (internal/sweep), which is how callers run specs. The level-2
// simulation aborts between windows once ctx is done, so the engine
// tears down in-flight work promptly.
func (s *System) RunCtx(ctx context.Context, spec RunSpec) (sim.MEMSpotResult, error) {
	ms, err := s.NewRun(spec)
	if err != nil {
		return sim.MEMSpotResult{}, err
	}
	return ms.RunCtx(ctx)
}

// NewRun builds (without running) the level-2 simulator instance for
// spec, backed by the system's shared trace store. The prefix-sharing
// layer (internal/sweep/prefix) uses it to drive runs decision window by
// decision window with checkpoint hooks; RunCtx is NewRun followed by
// running the instance to completion.
func (s *System) NewRun(spec RunSpec) (*sim.MEMSpot, error) {
	if spec.Policy == nil {
		return nil, fmt.Errorf("core: RunSpec needs a policy")
	}
	amb := fbconfig.AmbientIsolated
	if spec.Model == Integrated {
		amb = fbconfig.AmbientIntegrated
	}
	if spec.PsiXi != 0 {
		amb.PsiXi = spec.PsiXi
	}
	lim := s.cfg.Limits
	if spec.Limits.AMBTDP != 0 {
		lim = spec.Limits
	}
	interval := s.cfg.Interval
	if spec.Interval != 0 {
		interval = spec.Interval
	}
	win := interval
	if win > 0.01 {
		win = 0.01
	}
	scale := s.cfg.InstrScale
	if scale == 0 {
		scale = 1 // MEMSpot would default it; multiply against the real base
	}
	if spec.InstrScale > 0 {
		scale *= spec.InstrScale
	}
	cfg := sim.MEMSpotConfig{
		Mix:          spec.Mix,
		Replicas:     s.cfg.Replicas,
		Policy:       spec.Policy,
		Cooling:      spec.Cooling,
		Ambient:      amb,
		Limits:       lim,
		Params:       s.cfg.Params,
		CPU:          s.cfg.CPU,
		DVFS:         s.cfg.DVFS,
		WindowS:      win,
		DTMIntervalS: interval,
		InstrScale:   scale,
		ExactThermal: s.cfg.ExactThermal,
	}
	return sim.NewMEMSpot(cfg, s.store)
}

// PolicyNames lists the Chapter 4 policy constructors available through
// NewPolicyFor, in the paper's presentation order.
func PolicyNames() []string {
	return []string{
		"No-limit", "DTM-TS", "DTM-BW", "DTM-ACG", "DTM-CDVFS", "DTM-COMB",
		"DTM-BW+PID", "DTM-ACG+PID", "DTM-CDVFS+PID",
	}
}

// NewPolicyFor builds a Chapter 4 policy by name against thermal limits
// lim and the Table 4.3 levels they select. Each call returns a fresh
// policy (policies are stateful). The limits are explicit so that in
// TRP/TDP sweeps the swept limit reaches the policy itself (e.g. Fig.
// 4.2's DTM-TS TRP sweep).
func (s *System) NewPolicyFor(name string, lim fbconfig.ThermalLimits) (dtm.Policy, error) {
	cores := s.cfg.Params.Cores
	levels := dtm.LevelsForTDP(lim.AMBTDP, lim.DRAMTDP)
	switch name {
	case "No-limit":
		return &dtm.NoLimit{Cores: cores}, nil
	case "DTM-TS":
		return dtm.NewTS(lim, cores), nil
	case "DTM-BW":
		return dtm.NewBW(levels, cores), nil
	case "DTM-ACG":
		return dtm.NewACG(levels, cores), nil
	case "DTM-CDVFS":
		return dtm.NewCDVFS(levels, cores), nil
	case "DTM-COMB":
		return dtm.NewCOMB(levels, cores), nil
	case "DTM-BW+PID":
		return dtm.NewPID("DTM-BW", dtm.ActionsBW(cores), lim)
	case "DTM-ACG+PID":
		return dtm.NewPID("DTM-ACG", dtm.ActionsACG(cores), lim)
	case "DTM-CDVFS+PID":
		return dtm.NewPID("DTM-CDVFS", dtm.ActionsCDVFS(cores, len(s.cfg.DVFS)), lim)
	default:
		return nil, fmt.Errorf("core: unknown policy %q", name)
	}
}
