package workload

import (
	"testing"
	"testing/quick"

	"dramtherm/internal/cache"
)

// TestAllProfilesValid checks every compiled-in profile.
func TestAllProfilesValid(t *testing.T) {
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
	if len(All()) < 30 {
		t.Fatalf("only %d profiles (need 26 CPU2000 + 8 CPU2006)", len(All()))
	}
}

func TestSuiteSplit(t *testing.T) {
	if got := len(Suite2000()); got != 26 {
		t.Fatalf("CPU2000 count = %d, want 26", got)
	}
	n2006 := 0
	for _, p := range All() {
		if p.Suite == CPU2006 {
			n2006++
		}
	}
	if n2006 != 8 {
		t.Fatalf("CPU2006 count = %d, want 8", n2006)
	}
	if CPU2000.String() != "CPU2000" || CPU2006.String() != "CPU2006" {
		t.Fatal("Suite.String wrong")
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("swim")
	if err != nil || p.Name != "swim" {
		t.Fatalf("ByName(swim) = %v, %v", p, err)
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustByName did not panic")
		}
	}()
	MustByName("nonexistent")
}

// TestIntensityClasses verifies the paper's grouping (§4.3.2): the eight
// high-bandwidth applications are more memory-intensive than the 5–10
// GB/s group.
func TestIntensityClasses(t *testing.T) {
	high := []string{"swim", "mgrid", "applu", "galgel", "art", "equake", "lucas", "fma3d"}
	low := []string{"wupwise", "vpr", "apsi"}
	minHigh := 1e18
	for _, n := range high {
		p := MustByName(n)
		if v := p.L2APKI; v < minHigh {
			minHigh = v
		}
	}
	for _, n := range low {
		if MustByName(n).L2APKI >= minHigh {
			t.Errorf("%s as intense as the high group", n)
		}
	}
}

func TestMixes(t *testing.T) {
	if len(Chapter4Mixes()) != 8 {
		t.Fatalf("chapter 4 mixes = %d", len(Chapter4Mixes()))
	}
	if len(Chapter5Mixes()) != 10 {
		t.Fatalf("chapter 5 mixes = %d", len(Chapter5Mixes()))
	}
	// Table 4.2 exact contents.
	w1, err := MixByName("W1")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"swim", "mgrid", "applu", "galgel"}
	for i, a := range want {
		if w1.Apps[i] != a {
			t.Fatalf("W1 = %v", w1.Apps)
		}
	}
	for _, m := range Mixes {
		ps, err := m.Profiles()
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if len(ps) != 4 {
			t.Fatalf("%s has %d apps", m.Name, len(ps))
		}
	}
	if _, err := MixByName("W99"); err == nil {
		t.Fatal("unknown mix accepted")
	}
	// Homogeneous Chapter 5 mixes: four copies of one known program.
	if m, err := MixByName("swimx4"); err != nil || m.Name != "swimx4" ||
		len(m.Apps) != 4 || m.Apps[0] != "swim" || m.Apps[3] != "swim" {
		t.Fatalf("swimx4 = %+v, %v", m, err)
	}
	for _, bad := range []string{"x4", "nosuchx4", "swimx2", "W1x4"} {
		if _, err := MixByName(bad); err == nil {
			t.Errorf("mix %q accepted", bad)
		}
	}
}

func TestPhaseMul(t *testing.T) {
	p := MustByName("swim")
	if len(p.Phases) == 0 {
		t.Skip("swim has no phases")
	}
	if got := p.PhaseMul(0); got != p.Phases[0] {
		t.Fatalf("PhaseMul(0) = %v", got)
	}
	if got := p.PhaseMul(1); got != p.Phases[len(p.Phases)-1] {
		t.Fatalf("PhaseMul(1) = %v", got)
	}
	if got := p.PhaseMul(-5); got != p.Phases[0] {
		t.Fatalf("PhaseMul(-5) = %v", got)
	}
	flat := Profile{Phases: nil}
	if flat.PhaseMul(0.5) != 1 {
		t.Fatal("flat profile multiplier != 1")
	}
}

func TestStreamDeterminism(t *testing.T) {
	p := MustByName("swim")
	a := NewStream(p, 0, 42)
	b := NewStream(p, 0, 42)
	for i := 0; i < 1000; i++ {
		aa, ak := a.Next()
		ba, bk := b.Next()
		if aa != ba || ak != bk {
			t.Fatalf("streams diverged at %d", i)
		}
	}
	// Different owners do not alias.
	c := NewStream(p, 1, 42)
	ca, _ := c.Next()
	if ca>>40 == 1 {
		t.Fatalf("owner 1 address in owner 0 region: %#x", ca)
	}
}

// TestStreamAddressRange: every address falls inside the owner's private
// hot+stream region.
func TestStreamAddressRange(t *testing.T) {
	p := MustByName("art")
	s := NewStream(p, 3, 7)
	base := uint64(4) << 40
	limit := base + uint64(p.HotKB+p.StreamKB)*1024
	stores := 0
	for i := 0; i < 20000; i++ {
		addr, kind := s.Next()
		if addr < base || addr >= limit {
			t.Fatalf("address %#x outside [%#x,%#x)", addr, base, limit)
		}
		if kind == cache.Store {
			stores++
		}
	}
	frac := float64(stores) / 20000
	if frac < p.StoreFrac-0.05 || frac > p.StoreFrac+0.05 {
		t.Fatalf("store fraction %.3f, want ~%.2f", frac, p.StoreFrac)
	}
}

func TestSpeculativeScalesWithFrequency(t *testing.T) {
	p := MustByName("swim")
	count := func(ratio float64) int {
		s := NewStream(p, 0, 9)
		n := 0
		for i := 0; i < 50000; i++ {
			if s.Speculative(ratio) {
				n++
			}
		}
		return n
	}
	full, quarter := count(1.0), count(0.25)
	if quarter >= full {
		t.Fatalf("speculative traffic did not scale: full=%d quarter=%d", full, quarter)
	}
	if zero := count(0); zero != 0 {
		t.Fatalf("zero-frequency speculation: %d", zero)
	}
}

func TestValidateRejects(t *testing.T) {
	base := *MustByName("swim")
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.IPC0 = 0 },
		func(p *Profile) { p.HotFrac = 1.5 },
		func(p *Profile) { p.StoreFrac = -0.1 },
		func(p *Profile) { p.HotKB = 0 },
		func(p *Profile) { p.StreamKB = 0 },
		func(p *Profile) { p.MLP = 0 },
		func(p *Profile) { p.GInstr = 0 },
		func(p *Profile) { p.Phases = []float64{1, -1} },
	}
	for i, mut := range cases {
		p := base
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// Property: PhaseMul output is always one of the declared phase values.
func TestPhaseMulProperty(t *testing.T) {
	p := MustByName("equake")
	f := func(raw uint16) bool {
		prog := float64(raw) / 65535
		m := p.PhaseMul(prog)
		for _, v := range p.Phases {
			if v == m {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
