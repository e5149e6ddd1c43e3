// Package workload provides synthetic stand-ins for the SPEC CPU2000 and
// CPU2006 applications the paper runs. We cannot ship SPEC binaries or
// SimPoint traces, so each application is replaced by a profile calibrated
// to its published characteristics in the paper: memory-throughput class
// (§4.3.2 names the >10 GB/s and 5–10 GB/s groups; Fig. 5.5 names the hot,
// moderate, and cool programs), L2 access intensity, working-set shape
// (streaming vs. hot-set reuse), memory-level parallelism, store fraction,
// and run length. A profile drives a deterministic synthetic address
// stream through the simulated cache hierarchy, so L2 miss rates — and
// with them all contention effects the DTM schemes exploit — emerge from
// simulation rather than being asserted.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"dramtherm/internal/cache"
)

// Suite identifies the benchmark suite of a profile.
type Suite int

const (
	// CPU2000 is SPEC CPU2000.
	CPU2000 Suite = iota
	// CPU2006 is SPEC CPU2006.
	CPU2006
)

func (s Suite) String() string {
	if s == CPU2006 {
		return "CPU2006"
	}
	return "CPU2000"
}

// Profile is a synthetic application model.
type Profile struct {
	Name  string
	Suite Suite

	// IPC0 is the issue-limited IPC while not stalled on memory.
	IPC0 float64
	// L2APKI is the L2 (last-level) cache accesses per kilo-instruction,
	// i.e. the L1 miss stream intensity.
	L2APKI float64
	// HotKB / HotFrac describe the reused hot set: HotFrac of L2 accesses
	// fall uniformly in a HotKB-sized region (cache-capacity sensitive).
	HotKB   int
	HotFrac float64
	// StreamKB is the size of the streaming buffer walked sequentially by
	// the remaining accesses (compulsory misses).
	StreamKB int
	// StoreFrac is the fraction of L2 accesses that are stores (drives
	// writeback traffic).
	StoreFrac float64
	// MLP is the maximum outstanding demand misses the core sustains.
	MLP int
	// SpecFrac is the expected number of speculative/prefetch reads per
	// demand miss at the maximum core frequency (§4.4.2: scaling the core
	// down sheds this traffic).
	SpecFrac float64
	// GInstr is the instructions per run, in billions.
	GInstr float64
	// Phases multiplies memory intensity across run progress; the run is
	// split into len(Phases) equal spans. Empty means flat.
	Phases []float64
	// CPUBound marks programs that keep the core busy even while memory
	// is throttled (galgel/apsi/vpr-like, §5.4.4).
	CPUBound bool
}

// Validate reports profile inconsistencies.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: empty name")
	case p.IPC0 <= 0 || p.L2APKI < 0:
		return fmt.Errorf("workload %s: bad rates", p.Name)
	case p.HotFrac < 0 || p.HotFrac > 1 || p.StoreFrac < 0 || p.StoreFrac > 1:
		return fmt.Errorf("workload %s: fractions out of range", p.Name)
	case p.HotKB <= 0 || p.StreamKB <= 0:
		return fmt.Errorf("workload %s: working sets must be positive", p.Name)
	case p.MLP <= 0:
		return fmt.Errorf("workload %s: MLP must be positive", p.Name)
	case p.GInstr <= 0:
		return fmt.Errorf("workload %s: GInstr must be positive", p.Name)
	}
	for _, m := range p.Phases {
		if m < 0 {
			return fmt.Errorf("workload %s: negative phase multiplier", p.Name)
		}
	}
	return nil
}

// PhaseMul returns the memory-intensity multiplier at run progress
// p ∈ [0,1].
func (p *Profile) PhaseMul(progress float64) float64 {
	if len(p.Phases) == 0 {
		return 1
	}
	if progress < 0 {
		progress = 0
	}
	if progress >= 1 {
		progress = 0.999999
	}
	return p.Phases[int(progress*float64(len(p.Phases)))]
}

// Instructions returns the total instruction count of one run.
func (p *Profile) Instructions() float64 { return p.GInstr * 1e9 }

// Stream generates the profile's synthetic L2 access stream. Streams are
// deterministic given the seed and place all addresses in a private
// region selected by the owner tag, so two cores never share lines.
type Stream struct {
	prof      *Profile
	base      uint64
	rng       *rand.Rand
	streamPos uint64
	hotLines  uint64
	strLines  uint64
}

// NewStream returns a stream for p owned by owner (unique per core slot).
func NewStream(p *Profile, owner int, seed int64) *Stream {
	combined := seed ^ int64(owner)<<17 ^ hashName(p.Name)
	return &Stream{
		prof:     p,
		base:     uint64(owner+1) << 40,
		rng:      rand.New(rand.NewSource(combined)),
		hotLines: uint64(p.HotKB) * 1024 / 64,
		strLines: uint64(p.StreamKB) * 1024 / 64,
	}
}

func hashName(s string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= int64(s[i])
		h *= 1099511628211
	}
	return h
}

// Next returns the next access address and kind.
func (s *Stream) Next() (uint64, cache.AccessKind) {
	var line uint64
	if s.rng.Float64() < s.prof.HotFrac {
		line = uint64(s.rng.Int63n(int64(s.hotLines)))
	} else {
		// Streaming region placed after the hot region.
		line = s.hotLines + s.streamPos
		s.streamPos++
		if s.streamPos >= s.strLines {
			s.streamPos = 0
		}
	}
	kind := cache.Load
	if s.rng.Float64() < s.prof.StoreFrac {
		kind = cache.Store
	}
	return s.base + line*64, kind
}

// Speculative reports whether a speculative access should accompany a
// demand miss given the frequency ratio f ∈ [0,1] of current to maximum
// core frequency.
func (s *Stream) Speculative(freqRatio float64) bool {
	p := s.prof.SpecFrac * freqRatio
	return p > 0 && s.rng.Float64() < p
}

// profiles is the calibrated application table. Intensity classes follow
// §4.3.2 and Fig. 5.5; run lengths approximate SPEC reference-input
// instruction counts.
var profiles = []Profile{
	// ---- SPEC CPU2000: the eight >10 GB/s (four copies) applications.
	{Name: "swim", Suite: CPU2000, IPC0: 2.2, L2APKI: 48, HotKB: 2048, HotFrac: 0.3, StreamKB: 49152, StoreFrac: 0.36, MLP: 9, SpecFrac: 0.10, GInstr: 220, Phases: []float64{1.15, 1.1, 1, 0.95, 1.05, 1, 1.1, 0.9}},
	{Name: "mgrid", Suite: CPU2000, IPC0: 2.4, L2APKI: 40, HotKB: 2048, HotFrac: 0.3, StreamKB: 57344, StoreFrac: 0.3, MLP: 9, SpecFrac: 0.10, GInstr: 330, Phases: []float64{1, 1.1, 1.1, 1, 0.9, 1, 1.05, 1}},
	{Name: "applu", Suite: CPU2000, IPC0: 2.2, L2APKI: 42, HotKB: 2560, HotFrac: 0.3, StreamKB: 40960, StoreFrac: 0.34, MLP: 8, SpecFrac: 0.10, GInstr: 310, Phases: []float64{0.9, 1.05, 1.1, 1.05, 1, 1.05, 1.1, 0.95}},
	{Name: "galgel", Suite: CPU2000, IPC0: 2.6, L2APKI: 34, HotKB: 3584, HotFrac: 0.8, StreamKB: 16384, StoreFrac: 0.22, MLP: 6, SpecFrac: 0.08, GInstr: 300, Phases: []float64{1, 1, 1.1, 1.2, 1.1, 1, 0.9, 0.9}, CPUBound: true},
	{Name: "art", Suite: CPU2000, IPC0: 1.8, L2APKI: 72, HotKB: 3700, HotFrac: 0.88, StreamKB: 8192, StoreFrac: 0.2, MLP: 7, SpecFrac: 0.06, GInstr: 80, Phases: []float64{1.05, 1, 1, 1.1, 1, 1, 1.05, 1}},
	{Name: "equake", Suite: CPU2000, IPC0: 2.0, L2APKI: 44, HotKB: 4096, HotFrac: 0.35, StreamKB: 32768, StoreFrac: 0.25, MLP: 8, SpecFrac: 0.09, GInstr: 180, Phases: []float64{1.3, 1.05, 1, 1, 0.95, 1, 1, 0.95}},
	{Name: "lucas", Suite: CPU2000, IPC0: 2.1, L2APKI: 42, HotKB: 2048, HotFrac: 0.25, StreamKB: 65536, StoreFrac: 0.32, MLP: 9, SpecFrac: 0.10, GInstr: 260, Phases: []float64{1, 1.05, 1.05, 1, 1, 1.1, 0.95, 1}},
	{Name: "fma3d", Suite: CPU2000, IPC0: 2.0, L2APKI: 38, HotKB: 4096, HotFrac: 0.35, StreamKB: 28672, StoreFrac: 0.3, MLP: 8, SpecFrac: 0.09, GInstr: 290, Phases: []float64{0.95, 1, 1.1, 1.05, 1, 1, 1.05, 1}},
	// ---- SPEC CPU2000: the 5–10 GB/s group.
	{Name: "wupwise", Suite: CPU2000, IPC0: 2.3, L2APKI: 22, HotKB: 2048, HotFrac: 0.3, StreamKB: 24576, StoreFrac: 0.24, MLP: 6, SpecFrac: 0.08, GInstr: 350},
	{Name: "vpr", Suite: CPU2000, IPC0: 1.6, L2APKI: 9, HotKB: 2560, HotFrac: 0.85, StreamKB: 4096, StoreFrac: 0.3, MLP: 2, SpecFrac: 0.08, GInstr: 110, CPUBound: true},
	{Name: "mcf", Suite: CPU2000, IPC0: 1.1, L2APKI: 52, HotKB: 24576, HotFrac: 0.9, StreamKB: 16384, StoreFrac: 0.2, MLP: 3, SpecFrac: 0.05, GInstr: 60, Phases: []float64{1, 1.1, 1.1, 1, 1, 1.05, 1.05, 1}},
	{Name: "apsi", Suite: CPU2000, IPC0: 2.5, L2APKI: 16, HotKB: 3072, HotFrac: 0.75, StreamKB: 8192, StoreFrac: 0.26, MLP: 4, SpecFrac: 0.06, GInstr: 340, CPUBound: true},
	// ---- SPEC CPU2000: moderate programs named in Fig. 5.5.
	{Name: "gap", Suite: CPU2000, IPC0: 1.9, L2APKI: 10, HotKB: 4096, HotFrac: 0.7, StreamKB: 8192, StoreFrac: 0.25, MLP: 3, SpecFrac: 0.1, GInstr: 240},
	{Name: "bzip2", Suite: CPU2000, IPC0: 2.0, L2APKI: 8, HotKB: 6144, HotFrac: 0.8, StreamKB: 4096, StoreFrac: 0.3, MLP: 3, SpecFrac: 0.1, GInstr: 300},
	{Name: "facerec", Suite: CPU2000, IPC0: 2.1, L2APKI: 26, HotKB: 4096, HotFrac: 0.4, StreamKB: 16384, StoreFrac: 0.22, MLP: 6, SpecFrac: 0.15, GInstr: 310},
	// ---- SPEC CPU2000: low-intensity remainder.
	{Name: "gzip", Suite: CPU2000, IPC0: 2.2, L2APKI: 3, HotKB: 1024, HotFrac: 0.9, StreamKB: 2048, StoreFrac: 0.25, MLP: 2, SpecFrac: 0.05, GInstr: 180, CPUBound: true},
	{Name: "gcc", Suite: CPU2000, IPC0: 1.8, L2APKI: 5, HotKB: 2048, HotFrac: 0.85, StreamKB: 4096, StoreFrac: 0.3, MLP: 2, SpecFrac: 0.06, GInstr: 110},
	{Name: "crafty", Suite: CPU2000, IPC0: 2.4, L2APKI: 2, HotKB: 1024, HotFrac: 0.95, StreamKB: 1024, StoreFrac: 0.2, MLP: 2, SpecFrac: 0.05, GInstr: 190, CPUBound: true},
	{Name: "parser", Suite: CPU2000, IPC0: 1.7, L2APKI: 5, HotKB: 2048, HotFrac: 0.85, StreamKB: 2048, StoreFrac: 0.25, MLP: 2, SpecFrac: 0.05, GInstr: 330},
	{Name: "eon", Suite: CPU2000, IPC0: 2.5, L2APKI: 1, HotKB: 512, HotFrac: 0.95, StreamKB: 1024, StoreFrac: 0.2, MLP: 2, SpecFrac: 0.04, GInstr: 80, CPUBound: true},
	{Name: "perlbmk", Suite: CPU2000, IPC0: 2.2, L2APKI: 3, HotKB: 1536, HotFrac: 0.9, StreamKB: 2048, StoreFrac: 0.25, MLP: 2, SpecFrac: 0.05, GInstr: 210},
	{Name: "vortex", Suite: CPU2000, IPC0: 2.1, L2APKI: 4, HotKB: 2048, HotFrac: 0.85, StreamKB: 4096, StoreFrac: 0.3, MLP: 2, SpecFrac: 0.06, GInstr: 290},
	{Name: "twolf", Suite: CPU2000, IPC0: 1.6, L2APKI: 6, HotKB: 1536, HotFrac: 0.9, StreamKB: 1024, StoreFrac: 0.25, MLP: 2, SpecFrac: 0.05, GInstr: 250},
	{Name: "sixtrack", Suite: CPU2000, IPC0: 2.6, L2APKI: 2, HotKB: 1024, HotFrac: 0.9, StreamKB: 2048, StoreFrac: 0.2, MLP: 3, SpecFrac: 0.05, GInstr: 470, CPUBound: true},
	{Name: "mesa", Suite: CPU2000, IPC0: 2.4, L2APKI: 2, HotKB: 1024, HotFrac: 0.9, StreamKB: 2048, StoreFrac: 0.25, MLP: 2, SpecFrac: 0.05, GInstr: 280, CPUBound: true},
	{Name: "ammp", Suite: CPU2000, IPC0: 1.8, L2APKI: 7, HotKB: 4096, HotFrac: 0.8, StreamKB: 4096, StoreFrac: 0.22, MLP: 3, SpecFrac: 0.08, GInstr: 330},
	// ---- SPEC CPU2006 applications of Table 5.2.
	{Name: "milc", Suite: CPU2006, IPC0: 2.0, L2APKI: 44, HotKB: 3072, HotFrac: 0.25, StreamKB: 57344, StoreFrac: 0.3, MLP: 8, SpecFrac: 0.09, GInstr: 780},
	{Name: "leslie3d", Suite: CPU2006, IPC0: 2.1, L2APKI: 46, HotKB: 3072, HotFrac: 0.25, StreamKB: 49152, StoreFrac: 0.32, MLP: 8, SpecFrac: 0.10, GInstr: 1200},
	{Name: "soplex", Suite: CPU2006, IPC0: 1.7, L2APKI: 38, HotKB: 8192, HotFrac: 0.7, StreamKB: 24576, StoreFrac: 0.24, MLP: 5, SpecFrac: 0.06, GInstr: 700},
	{Name: "GemsFDTD", Suite: CPU2006, IPC0: 1.9, L2APKI: 52, HotKB: 4096, HotFrac: 0.28, StreamKB: 65536, StoreFrac: 0.3, MLP: 8, SpecFrac: 0.10, GInstr: 1100},
	{Name: "libquantum", Suite: CPU2006, IPC0: 2.2, L2APKI: 64, HotKB: 1024, HotFrac: 0.05, StreamKB: 32768, StoreFrac: 0.25, MLP: 9, SpecFrac: 0.12, GInstr: 1500},
	{Name: "lbm", Suite: CPU2006, IPC0: 2.0, L2APKI: 58, HotKB: 2048, HotFrac: 0.1, StreamKB: 65536, StoreFrac: 0.4, MLP: 9, SpecFrac: 0.11, GInstr: 1200},
	{Name: "omnetpp", Suite: CPU2006, IPC0: 1.4, L2APKI: 30, HotKB: 20480, HotFrac: 0.9, StreamKB: 8192, StoreFrac: 0.28, MLP: 3, SpecFrac: 0.06, GInstr: 650},
	{Name: "wrf", Suite: CPU2006, IPC0: 2.2, L2APKI: 24, HotKB: 3072, HotFrac: 0.4, StreamKB: 32768, StoreFrac: 0.28, MLP: 6, SpecFrac: 0.08, GInstr: 1600},
}

var byName = func() map[string]*Profile {
	m := make(map[string]*Profile, len(profiles))
	for i := range profiles {
		m[profiles[i].Name] = &profiles[i]
	}
	return m
}()

// ByName returns the profile for a benchmark name.
func ByName(name string) (*Profile, error) {
	p, ok := byName[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return p, nil
}

// MustByName is ByName that panics on unknown names; for use with the
// static mix tables below.
func MustByName(name string) *Profile {
	p, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// All returns every profile, sorted by name.
func All() []*Profile {
	out := make([]*Profile, 0, len(profiles))
	for i := range profiles {
		out = append(out, &profiles[i])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Suite2000 returns the SPEC CPU2000 profiles in table order.
func Suite2000() []*Profile {
	var out []*Profile
	for i := range profiles {
		if profiles[i].Suite == CPU2000 {
			out = append(out, &profiles[i])
		}
	}
	return out
}

// Mix is a multiprogramming workload: one application per core slot.
type Mix struct {
	Name string
	Apps []string
}

// Profiles resolves the mix's applications.
func (m Mix) Profiles() ([]*Profile, error) {
	out := make([]*Profile, len(m.Apps))
	for i, a := range m.Apps {
		p, err := ByName(a)
		if err != nil {
			return nil, fmt.Errorf("mix %s: %w", m.Name, err)
		}
		out[i] = p
	}
	return out, nil
}

// Mixes reproduces Table 4.2 / Table 5.2.
var Mixes = []Mix{
	{Name: "W1", Apps: []string{"swim", "mgrid", "applu", "galgel"}},
	{Name: "W2", Apps: []string{"art", "equake", "lucas", "fma3d"}},
	{Name: "W3", Apps: []string{"swim", "applu", "art", "lucas"}},
	{Name: "W4", Apps: []string{"mgrid", "galgel", "equake", "fma3d"}},
	{Name: "W5", Apps: []string{"swim", "art", "wupwise", "vpr"}},
	{Name: "W6", Apps: []string{"mgrid", "equake", "mcf", "apsi"}},
	{Name: "W7", Apps: []string{"applu", "lucas", "wupwise", "mcf"}},
	{Name: "W8", Apps: []string{"galgel", "fma3d", "vpr", "apsi"}},
	{Name: "W11", Apps: []string{"milc", "leslie3d", "soplex", "GemsFDTD"}},
	{Name: "W12", Apps: []string{"libquantum", "lbm", "omnetpp", "wrf"}},
}

// MixByName returns the named mix: one of Mixes, or "<program>x4",
// four copies of one program (the Chapter 5 homogeneous workloads).
func MixByName(name string) (Mix, error) {
	for _, m := range Mixes {
		if m.Name == name {
			return m, nil
		}
	}
	if p, ok := strings.CutSuffix(name, "x4"); ok && byName[p] != nil {
		return Mix{Name: name, Apps: []string{p, p, p, p}}, nil
	}
	return Mix{}, fmt.Errorf("workload: unknown mix %q", name)
}

// Chapter4Mixes returns W1..W8 (Table 4.2).
func Chapter4Mixes() []Mix { return Mixes[:8] }

// Chapter5Mixes returns W1..W8 plus W11, W12 (Table 5.2).
func Chapter5Mixes() []Mix { return Mixes }
