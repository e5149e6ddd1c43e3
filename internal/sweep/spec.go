package sweep

import (
	"fmt"

	"dramtherm/internal/core"
	"dramtherm/internal/fbconfig"
	"dramtherm/internal/platform"
	"dramtherm/internal/workload"
)

// Spec names one run entirely by value, unlike core.RunSpec whose
// Policy field is a live (stateful) object: a Chapter 4 simulation, or
// a Chapter 5 platform run when Machine is set. The zero value of every
// field selects the paper default.
type Spec struct {
	// Mix is the workload mix name (W1..W8, W11, W12, or "<program>x4";
	// see workload.MixByName).
	Mix string `json:"mix"`
	// Policy is the DTM policy name (core.PolicyNames, or for a machine
	// spec platform.PolicyKinds); empty means "No-limit".
	Policy string `json:"policy,omitempty"`
	// Cooling is the Table 3.2 column shorthand (e.g. "AOHS_1.5");
	// empty selects AOHS_1.5.
	Cooling string `json:"cooling,omitempty"`
	// Model is "isolated" (default) or "integrated".
	Model string `json:"model,omitempty"`
	// PsiXi overrides the integrated model's interaction coefficient
	// when nonzero.
	PsiXi float64 `json:"psi_xi,omitempty"`
	// Interval overrides the DTM interval in seconds when nonzero.
	Interval float64 `json:"interval,omitempty"`
	// Limits overrides the thermal limits when AMBTDP is nonzero; the
	// override reaches both the simulation and the policy construction
	// (TRP/TDP sweeps). A machine spec sets only AMBTDP, which shifts the
	// machine's AMB TDP and its Table 5.1 levels with it.
	Limits fbconfig.ThermalLimits `json:"limits,omitzero"`
	// InstrScale is the run's fidelity: a multiplier on the system's
	// base application-length scale. Zero and 1 both mean full fidelity
	// (and share a cache key); Engine.Search uses fractional rungs
	// (e.g. 0.25) as cheap approximations, each a distinct cache entry.
	InstrScale float64 `json:"instr_scale,omitempty"`

	// Machine runs the spec on an emulated Chapter 5 testbed, "PE1950"
	// or "SR1500AL", instead of the Chapter 4 simulator (empty); such a
	// spec leaves Cooling, Model, PsiXi and Interval empty. The fields
	// after it apply to machine specs only: the scheduling quantum in
	// seconds of two programs sharing a core (default 0.1), a system
	// ambient override in °C, a DVFS level the processors are pinned at
	// or below (3 is 2.0 GHz; 0 leaves it to the policy), the batch depth
	// (default 10) and a bound on the run's seconds (default 100,000).
	Machine    string  `json:"machine,omitempty"`
	Quantum    float64 `json:"quantum,omitempty"`
	Ambient    float64 `json:"ambient,omitempty"`
	ForceFreq  int     `json:"force_freq,omitempty"`
	RunsPerApp int     `json:"runs_per_app,omitempty"`
	MaxSeconds float64 `json:"max_seconds,omitempty"`
}

// normalize fills defaulted fields so that equivalent specs share a key.
func (s Spec) normalize() Spec {
	if s.Policy == "" {
		s.Policy = "No-limit"
	}
	if s.Machine != "" {
		c := platform.RunConfig{RunsPerApp: s.RunsPerApp, QuantumS: s.Quantum,
			InstrScale: s.InstrScale, MaxSeconds: s.MaxSeconds}.WithDefaults()
		s.RunsPerApp, s.Quantum, s.InstrScale, s.MaxSeconds = c.RunsPerApp, c.QuantumS, c.InstrScale, c.MaxSeconds
		s.Ambient, s.Limits.AMBTDP = canonZero(s.Ambient), canonZero(s.Limits.AMBTDP)
		return s
	}
	if s.Cooling == "" {
		s.Cooling = fbconfig.CoolingAOHS15.Name()
	}
	if s.Model == "" {
		s.Model = core.Isolated.String()
	}
	if s.InstrScale == 0 {
		s.InstrScale = 1
	}
	// The JSON codec cannot tell -0 from +0 (omitempty drops both), so
	// the canonical key must not either — otherwise a spec would change
	// identity crossing the wire and shard to a different ring owner.
	s.PsiXi = canonZero(s.PsiXi)
	s.Interval = canonZero(s.Interval)
	s.Limits.AMBTDP = canonZero(s.Limits.AMBTDP)
	s.Limits.DRAMTDP = canonZero(s.Limits.DRAMTDP)
	s.Limits.AMBTRP = canonZero(s.Limits.AMBTRP)
	s.Limits.DRAMTRP = canonZero(s.Limits.DRAMTRP)
	return s
}

// canonZero collapses negative zero onto positive zero.
func canonZero(f float64) float64 {
	if f == 0 {
		return 0
	}
	return f
}

// Key is the canonical cache identity of a run: a normalized spec plus
// the digest of the system configuration it executes under.
type Key string

// Key canonicalizes the spec under the given system-config digest.
func (s Spec) Key(configDigest string) Key {
	n := s.normalize()
	if n.Machine != "" {
		return Key(fmt.Sprintf("%s|%s|%s|machine=%s|q=%g|amb=%g|tdp=%g|ff=%d|rpa=%d|max=%g|is=%g",
			configDigest, n.Mix, n.Policy, n.Machine, n.Quantum, n.Ambient, n.Limits.AMBTDP,
			n.ForceFreq, n.RunsPerApp, n.MaxSeconds, n.InstrScale))
	}
	k := fmt.Sprintf("%s|%s|%s|%s|%s|psixi=%g|iv=%g|lim=%g,%g,%g,%g",
		configDigest, n.Mix, n.Policy, n.Cooling, n.Model,
		n.PsiXi, n.Interval,
		n.Limits.AMBTDP, n.Limits.DRAMTDP, n.Limits.AMBTRP, n.Limits.DRAMTRP)
	// Full fidelity keeps the pre-InstrScale key format, so existing
	// segment logs stay valid; only fractional
	// rungs grow the suffix that makes them distinct entries.
	if n.InstrScale != 1 {
		k += fmt.Sprintf("|is=%g", n.InstrScale)
	}
	return Key(k)
}

// String renders the spec compactly for progress lines and logs.
func (s Spec) String() string {
	n := s.normalize()
	if n.Machine != "" {
		return fmt.Sprintf("%s/%s/%s/q=%g/amb=%g/tdp=%g/ff=%d/rpa=%d/max=%g/is=%g", n.Mix, n.Policy,
			n.Machine, n.Quantum, n.Ambient, n.Limits.AMBTDP, n.ForceFreq, n.RunsPerApp, n.MaxSeconds, n.InstrScale)
	}
	out := fmt.Sprintf("%s/%s/%s/%s", n.Mix, n.Policy, n.Cooling, n.Model)
	if n.PsiXi != 0 {
		out += fmt.Sprintf("/psixi=%g", n.PsiXi)
	}
	if n.Interval != 0 {
		out += fmt.Sprintf("/iv=%g", n.Interval)
	}
	if n.Limits.AMBTDP != 0 {
		out += fmt.Sprintf("/lim=%g,%g", n.Limits.AMBTDP, n.Limits.DRAMTDP)
	}
	if n.InstrScale != 1 {
		out += fmt.Sprintf("/is=%g", n.InstrScale)
	}
	return out
}

// modelKind parses the Model field.
func (s Spec) modelKind() (core.ThermalModelKind, error) {
	switch s.Model {
	case "", core.Isolated.String():
		return core.Isolated, nil
	case core.Integrated.String():
		return core.Integrated, nil
	default:
		return core.Isolated, fmt.Errorf("sweep: unknown thermal model %q (want %q or %q)",
			s.Model, core.Isolated, core.Integrated)
	}
}

// Grid is a cartesian product of spec fields. Empty slices default to a
// single zero entry (the paper default for that dimension), so the zero
// Grid expands to nothing only because Mixes is empty — every populated
// grid needs at least one mix.
type Grid struct {
	Mixes     []string                 `json:"mixes"`
	Policies  []string                 `json:"policies,omitempty"`
	Coolings  []string                 `json:"coolings,omitempty"`
	Models    []string                 `json:"models,omitempty"`
	PsiXis    []float64                `json:"psi_xis,omitempty"`
	Intervals []float64                `json:"intervals,omitempty"`
	Limits    []fbconfig.ThermalLimits `json:"limits,omitempty"`
}

// AllMixes fills the grid's Mixes with every paper mix.
func AllMixes() []string {
	out := make([]string, len(workload.Mixes))
	for i, m := range workload.Mixes {
		out[i] = m.Name
	}
	return out
}

// Expand enumerates the cartesian product in deterministic order: mixes
// vary slowest, then policies, coolings, models, psi-xi, intervals,
// limits.
func (g Grid) Expand() []Spec {
	or := func(ss []string) []string {
		if len(ss) == 0 {
			return []string{""}
		}
		return ss
	}
	orF := func(fs []float64) []float64 {
		if len(fs) == 0 {
			return []float64{0}
		}
		return fs
	}
	lims := g.Limits
	if len(lims) == 0 {
		lims = []fbconfig.ThermalLimits{{}}
	}
	var out []Spec
	for _, mix := range g.Mixes {
		for _, pol := range or(g.Policies) {
			for _, cool := range or(g.Coolings) {
				for _, mdl := range or(g.Models) {
					for _, px := range orF(g.PsiXis) {
						for _, iv := range orF(g.Intervals) {
							for _, lim := range lims {
								out = append(out, Spec{
									Mix: mix, Policy: pol, Cooling: cool, Model: mdl,
									PsiXi: px, Interval: iv, Limits: lim,
								})
							}
						}
					}
				}
			}
		}
	}
	return out
}
