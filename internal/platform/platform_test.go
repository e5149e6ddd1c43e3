package platform

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dramtherm/internal/dtm"
	"dramtherm/internal/trace"
	"dramtherm/internal/workload"
)

func TestMachines(t *testing.T) {
	pe, sr := PE1950(), SR1500AL()
	if pe.Name != "PE1950" || sr.Name != "SR1500AL" {
		t.Fatal("names wrong")
	}
	if pe.AMBTDP != 90 || sr.AMBTDP != 100 {
		t.Fatal("TDPs wrong (Table 5.1)")
	}
	if pe.AMBLevels != [4]float64{76, 80, 84, 88} {
		t.Fatalf("PE levels = %v", pe.AMBLevels)
	}
	if sr.AMBLevels != [4]float64{86, 90, 94, 98} {
		t.Fatalf("SR levels = %v", sr.AMBLevels)
	}
	if pe.BWCaps != [3]float64{4, 3, 2} || sr.BWCaps != [3]float64{5, 4, 3} {
		t.Fatal("caps wrong (Table 5.1)")
	}
	if sr.SystemAmbient != 36 || pe.SystemAmbient != 26 {
		t.Fatal("ambient temperatures wrong (§5.3.1)")
	}
	// Xeon 5160 frequency ladder (§5.2.1).
	want := []float64{3.000, 2.667, 2.333, 2.000}
	for i, lv := range pe.CPU.Levels {
		if lv.FreqGHz != want[i] {
			t.Fatalf("freq[%d] = %v", i, lv.FreqGHz)
		}
	}
}

func TestLevelOf(t *testing.T) {
	_, levels, err := newPolicy(SR1500AL(), BW)
	if err != nil {
		t.Fatal(err)
	}
	// dtm levels run 1..5; LevelTimeS slots 0..4.
	cases := map[float64]int{80: 1, 87: 2, 91: 3, 95: 4, 99: 5, 120: 5}
	for amb, want := range cases {
		if got := levels.Level(amb, 0); got != want {
			t.Errorf("Level(%v) = %d, want %d", amb, got, want)
		}
	}
}

func TestLevelTables(t *testing.T) {
	m := SR1500AL()
	// decide at a reading inside each of the five levels.
	readings := []float64{80, 87, 91, 95, 99}
	table := func(k PolicyKind) []dtm.Action {
		p, _, err := newPolicy(m, k)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != k.String() {
			t.Fatalf("policy name %q, want %q", p.Name(), k)
		}
		out := make([]dtm.Action, len(readings))
		for i, r := range readings {
			out[i] = p.Decide(dtm.Input{AMB: r})
		}
		return out
	}
	for _, k := range PolicyKinds() {
		// Level 1 is always full speed.
		if a := table(k)[0]; a.ActiveCores != 4 || a.FreqIndex != 0 || !math.IsInf(a.BWCapGBps, 1) {
			t.Fatalf("%v level 1 = %+v", k, a)
		}
	}
	acg := table(ACG)
	if acg[1].ActiveCores != 3 || acg[2].ActiveCores != 2 {
		t.Fatal("ACG core ladder wrong")
	}
	// ACG keeps at least one core per socket (§5.2.2).
	for _, a := range acg {
		if a.ActiveCores < 2 {
			t.Fatal("ACG went below 2 cores")
		}
	}
	comb := table(COMB)
	if comb[1].ActiveCores != 3 || comb[1].FreqIndex != 1 {
		t.Fatal("COMB ladder wrong")
	}
	if kinds := PolicyKinds(); len(kinds) != 5 || kinds[4].String() != "DTM-COMB" {
		t.Fatal("policy kinds wrong")
	}
	if _, _, err := newPolicy(m, PolicyKind(42)); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestDomainKey(t *testing.T) {
	k := domainKey([][]string{{"b", "a"}, {"d", "c"}})
	if k != "a|b/c|d" {
		t.Fatalf("domainKey = %q", k)
	}
	// Socket order is canonicalized too.
	k2 := domainKey([][]string{{"d", "c"}, {"b", "a"}})
	if k2 != k {
		t.Fatalf("socket order not canonical: %q vs %q", k2, k)
	}
	if got := domainKey([][]string{{"a"}, {}}); got != "/a" && got != "a/" {
		t.Fatalf("empty domain = %q", got)
	}
}

func TestPlatformLevel1(t *testing.T) {
	m := SR1500AL()
	l1 := NewLevel1(m, 1)
	l1.WarmupNS, l1.MeasureNS = 3e5, 3e5
	r, err := l1.Build(trace.DesignPoint{Apps: "mgrid|swim/applu|galgel", FreqGHz: 3.0, BWCapGBps: math.Inf(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerApp) != 4 {
		t.Fatalf("PerApp = %v", r.PerApp)
	}
	// FSB ceiling binds total throughput.
	if got := r.TotalGBps(); got > m.FSBGBps*1.15 {
		t.Fatalf("throughput %v exceeds FSB %v", got, m.FSBGBps)
	}
	// Zero/invalid points.
	z, err := l1.Build(trace.DesignPoint{Apps: "", FreqGHz: 3})
	if err != nil || z.TotalGBps() != 0 {
		t.Fatal("empty point not zero")
	}
	if _, err := l1.Build(trace.DesignPoint{Apps: "a|b|c/d|e", FreqGHz: 3}); err == nil {
		t.Fatal("5 apps accepted")
	}
}

func tinyRun(t *testing.T, m Machine, k PolicyKind, quantum float64) RunResult {
	t.Helper()
	store := NewStore(m, 1)
	res, err := RunPlatform(RunConfig{
		Machine: m, Policy: k, Mix: mustMix(t, "W1"),
		RunsPerApp: 1, InstrScale: 0.01, QuantumS: quantum, SensorSeed: 3,
	}, store)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustMix(t *testing.T, name string) workload.Mix {
	t.Helper()
	m, err := workload.MixByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestServerRunCompletes(t *testing.T) {
	res := tinyRun(t, SR1500AL(), BW, 0.1)
	if res.TimedOut || res.Seconds <= 0 || res.Completed != 4 {
		t.Fatalf("run broken: %+v", res)
	}
	if res.AvgCPUWatt <= 0 || res.AvgInletC <= 36 {
		t.Fatalf("instrumentation broken: cpu %v inlet %v", res.AvgCPUWatt, res.AvgInletC)
	}
	var lvl float64
	for _, s := range res.LevelTimeS {
		lvl += s
	}
	if math.Abs(lvl-res.Seconds) > 1.5 {
		t.Fatalf("level residency %v vs %v", lvl, res.Seconds)
	}
}

// TestQuantumThrashing: a 5 ms quantum increases both L2 misses and
// runtime over a 100 ms quantum (Fig. 5.15 behaviour).
func TestQuantumThrashing(t *testing.T) {
	store := NewStore(PE1950(), 1)
	run := func(q float64) RunResult {
		// TDP 72 °C puts the machine deep in thermal emergency so ACG
		// spends the run in shared-core mode, exposing the quantum cost.
		res, err := RunPlatform(RunConfig{
			Machine: PE1950(), Policy: ACG, Mix: mustMix(t, "W1"),
			RunsPerApp: 1, InstrScale: 0.05, QuantumS: q, SensorSeed: 3,
			TDPOverride: 72,
		}, store)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	slow, fast := run(0.005), run(0.1)
	if slow.L2Misses <= fast.L2Misses {
		t.Fatalf("small quantum did not raise misses: %v vs %v", slow.L2Misses, fast.L2Misses)
	}
	if slow.Seconds < fast.Seconds {
		t.Fatalf("small quantum ran faster: %v vs %v", slow.Seconds, fast.Seconds)
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := NewServer(RunConfig{Machine: PE1950(), Policy: BW,
		Mix: workload.Mix{Name: "x", Apps: []string{"nosuch"}}}, NewStore(PE1950(), 1)); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := NewServer(RunConfig{Machine: PE1950(), Policy: BW, Mix: mustMix(t, "W1")}, nil); err == nil {
		t.Fatal("nil store accepted")
	}
}

func TestTDPOverrideShiftsLevels(t *testing.T) {
	cfg := RunConfig{Machine: PE1950(), Policy: BW, Mix: mustMix(t, "W1"),
		TDPOverride: 92, RunsPerApp: 1, InstrScale: 0.005}
	s, err := NewServer(cfg, NewStore(PE1950(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if s.m.AMBTDP != 92 || s.m.AMBLevels[0] != 78 {
		t.Fatalf("override not applied: %+v", s.m)
	}
}

func TestPolicyKindString(t *testing.T) {
	if !strings.HasPrefix(PolicyKind(42).String(), "PolicyKind(") {
		t.Fatal("unknown kind rendering")
	}
}

// refRunLevel, refLevelTable and refLevelOf are the Table 5.1 decision
// code the platform used before it decided through dtm policies, kept
// verbatim as the reference TestDecisionsMatchReference compares against.
type refRunLevel struct {
	cores   int
	freqIdx int
	cap     float64
}

func refLevelTable(m Machine, k PolicyKind) []refRunLevel {
	inf := math.Inf(1)
	switch k {
	case NoLimit:
		return []refRunLevel{{4, 0, inf}, {4, 0, inf}, {4, 0, inf}, {4, 0, inf}, {4, 0, inf}}
	case BW:
		return []refRunLevel{
			{4, 0, inf}, {4, 0, m.BWCaps[0]}, {4, 0, m.BWCaps[1]}, {4, 0, m.BWCaps[2]},
			{4, 0, m.BWCaps[2]},
		}
	case ACG:
		return []refRunLevel{
			{4, 0, inf}, {3, 0, inf}, {2, 0, inf}, {2, 0, m.BWCaps[2]},
			{2, 0, m.BWCaps[2]},
		}
	case CDVFS:
		return []refRunLevel{
			{4, 0, inf}, {4, 1, inf}, {4, 2, inf}, {4, 3, inf},
			{4, 3, m.BWCaps[2]},
		}
	case COMB:
		return []refRunLevel{
			{4, 0, inf}, {3, 1, inf}, {2, 2, inf}, {2, 3, inf},
			{2, 3, m.BWCaps[2]},
		}
	default:
		panic(fmt.Sprintf("platform: unknown policy %v", k))
	}
}

func refLevelOf(m Machine, amb float64) int {
	for i, b := range m.AMBLevels {
		if amb < b {
			return i
		}
	}
	return len(m.AMBLevels)
}

// TestDecisionsMatchReference checks, reading by reading, that the
// running state a server applies and the residency slot it charges
// equal the reference Table 5.1 code: both machines, every policy,
// several TDP overrides, with and without a pinned frequency, over
// 60–115 °C in 0.125 °C steps plus every boundary exactly.
func TestDecisionsMatchReference(t *testing.T) {
	w1 := mustMix(t, "W1")
	for _, m := range []Machine{PE1950(), SR1500AL()} {
		store := NewStore(m, 1)
		for _, k := range PolicyKinds() {
			for _, tdp := range []float64{0, 88, 92, 100} {
				for _, force := range []int{-1, 3} {
					s, err := NewServer(RunConfig{Machine: m, Policy: k, Mix: w1,
						TDPOverride: tdp, ForceFreqIdx: force}, store)
					if err != nil {
						t.Fatal(err)
					}
					ref := m
					if tdp != 0 {
						shift := tdp - ref.AMBTDP
						ref.AMBTDP = tdp
						for i := range ref.AMBLevels {
							ref.AMBLevels[i] += shift
						}
					}
					table := refLevelTable(ref, k)
					var readings []float64
					for r := 60.0; r <= 115; r += 0.125 {
						readings = append(readings, r)
					}
					readings = append(readings, ref.AMBLevels[:]...)
					for _, r := range readings {
						want, wantLvl := table[refLevelOf(ref, r)], refLevelOf(ref, r)
						if force >= 0 && want.freqIdx < force {
							want.freqIdx = force
						}
						a, lvl := s.decide(r)
						if a.ActiveCores != want.cores || a.FreqIndex != want.freqIdx ||
							a.BWCapGBps != want.cap || a.MemOff || lvl != wantLvl {
							t.Fatalf("%s %v tdp %v force %d at %v °C: got %+v level %d, want %+v level %d",
								m.Name, k, tdp, force, r, a, lvl, want, wantLvl)
						}
					}
				}
			}
		}
	}
}
