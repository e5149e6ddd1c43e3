package cpu

import (
	"testing"

	"dramtherm/internal/fbconfig"
	"dramtherm/internal/memctrl"
	"dramtherm/internal/workload"
)

func machine(t *testing.T) *Multicore {
	t.Helper()
	mem, err := memctrl.New(memctrl.DefaultConfig(fbconfig.DefaultSimParams))
	if err != nil {
		t.Fatal(err)
	}
	mc, err := New(DefaultConfig(), mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	return mc
}

func TestNewValidation(t *testing.T) {
	mem, _ := memctrl.New(memctrl.DefaultConfig(fbconfig.DefaultSimParams))
	if _, err := New(Config{Cores: 0}, mem, 1); err == nil {
		t.Fatal("zero cores accepted")
	}
	if _, err := New(Config{Cores: 2, L2Domain: []int{0}}, mem, 1); err == nil {
		t.Fatal("domain length mismatch accepted")
	}
	if _, err := New(Config{Cores: 2, L2Domain: []int{0, -1}}, mem, 1); err == nil {
		t.Fatal("negative domain accepted")
	}
	// Two domains build two L2s.
	mc, err := New(Config{Cores: 4, MaxFreqGHz: 3, L2Domain: []int{0, 0, 1, 1},
		Params: fbconfig.DefaultSimParams}, mem, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mc.L2Domains() != 2 {
		t.Fatalf("domains = %d", mc.L2Domains())
	}
}

// cpuOnly is a compute-bound profile: essentially no L2 accesses.
var cpuOnly = workload.Profile{
	Name: "cpuonly", IPC0: 2.0, L2APKI: 0.0001, HotKB: 64, HotFrac: 1,
	StreamKB: 64, StoreFrac: 0, MLP: 4, GInstr: 1,
}

// TestRetireRate: with no memory stalls, the core retires IPC0 × freq.
func TestRetireRate(t *testing.T) {
	mc := machine(t)
	mc.Assign(0, &cpuOnly, 1)
	mc.SetFreq(3.2)
	mc.RunFor(1e5) // 100 µs
	got := mc.Cores()[0].Stats().Retired
	want := 2.0 * 3.2 * 1e5 // IPC0 × GHz × ns
	if got < want*0.95 || got > want*1.001 {
		t.Fatalf("retired %v, want ≈%v", got, want)
	}
}

// TestFrequencyScaling: halving frequency halves a compute-bound core's
// rate.
func TestFrequencyScaling(t *testing.T) {
	rate := func(f float64) float64 {
		mc := machine(t)
		mc.Assign(0, &cpuOnly, 1)
		mc.SetFreq(f)
		mc.RunFor(1e5)
		return mc.Cores()[0].Stats().Retired
	}
	full, half := rate(3.2), rate(1.6)
	ratio := half / full
	if ratio < 0.48 || ratio > 0.52 {
		t.Fatalf("frequency scaling ratio = %v", ratio)
	}
}

// TestMemoryTraffic: a memory-bound profile produces controller traffic
// and outstanding misses never exceed MLP.
func TestMemoryTraffic(t *testing.T) {
	mc := machine(t)
	p, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	mc.Assign(0, p, 1)
	for i := 0; i < 100000; i++ {
		mc.Step()
		if out := mc.Cores()[0].outstanding; out > p.MLP {
			t.Fatalf("outstanding %d exceeds MLP %d", out, p.MLP)
		}
	}
	// Run long enough to fill the 4 MB L2 and start evicting dirty lines.
	mc.RunFor(4e6)
	st := mc.Mem().Stats()
	if st.ReadBytes == 0 {
		t.Fatal("no read traffic generated")
	}
	if st.WriteBytes == 0 {
		t.Fatal("no writeback traffic generated")
	}
	cs := mc.Cores()[0].Stats()
	if cs.DemandMiss == 0 || cs.StallCycles == 0 {
		t.Fatalf("memory-bound core stats implausible: %+v", cs)
	}
}

// TestSpeculativeScaling: speculative requests drop when the core is
// slowed (§4.4.2).
func TestSpeculativeScaling(t *testing.T) {
	spec := func(f float64) uint64 {
		mc := machine(t)
		p, _ := workload.ByName("swim")
		mc.Assign(0, p, 1)
		mc.SetFreq(f)
		mc.RunFor(3e5)
		return mc.Cores()[0].Stats().SpecIssued
	}
	full, slow := spec(3.2), spec(0.8)
	if slow >= full {
		t.Fatalf("speculative traffic did not shrink: %d vs %d", slow, full)
	}
}

// TestPhaseMultiplier: a higher memory-intensity multiplier produces more
// misses per instruction.
func TestPhaseMultiplier(t *testing.T) {
	missPerInstr := func(mul float64) float64 {
		mc := machine(t)
		p, _ := workload.ByName("swim")
		mc.Assign(0, p, mul)
		mc.RunFor(3e5)
		cs := mc.Cores()[0].Stats()
		return float64(cs.DemandMiss) / cs.Retired
	}
	lo, hi := missPerInstr(0.5), missPerInstr(1.5)
	if hi <= lo {
		t.Fatalf("phase multiplier ineffective: %v vs %v", lo, hi)
	}
}

func TestAssignReset(t *testing.T) {
	mc := machine(t)
	p, _ := workload.ByName("art")
	mc.Assign(2, p, 1)
	if !mc.Cores()[2].Assigned() || mc.Cores()[2].Profile() != p {
		t.Fatal("assignment lost")
	}
	mc.Assign(2, nil, 1)
	if mc.Cores()[2].Assigned() {
		t.Fatal("core still assigned after nil")
	}
	mc.RunFor(1e4) // idle core must not crash
}

func TestResetStats(t *testing.T) {
	mc := machine(t)
	p, _ := workload.ByName("swim")
	mc.Assign(0, p, 1)
	mc.RunFor(1e5)
	mc.ResetStats()
	if mc.Cores()[0].Stats().Retired != 0 {
		t.Fatal("core stats survive reset")
	}
	if mc.Mem().Stats().ReadBytes != 0 {
		t.Fatal("controller stats survive reset")
	}
	if mc.L2(0).Stats().Accesses != 0 {
		t.Fatal("cache stats survive reset")
	}
}

// TestSharedCacheContention: four copies of a hot-set program miss more
// in the shared L2 than a single copy — the DTM-ACG mechanism.
func TestSharedCacheContention(t *testing.T) {
	missRate := func(copies int) float64 {
		mc := machine(t)
		p, _ := workload.ByName("art")
		for i := 0; i < copies; i++ {
			mc.Assign(i, p, 1)
		}
		mc.RunFor(2e6)
		mc.ResetStats()
		mc.RunFor(1e6)
		return mc.L2(0).Stats().MissRate()
	}
	solo, four := missRate(1), missRate(4)
	if four <= solo*1.2 {
		t.Fatalf("contention too weak: solo %.3f vs four %.3f", solo, four)
	}
}
