package sweep

import (
	"encoding/json"
	"math"
	"testing"

	"dramtherm/internal/fbconfig"
)

func TestSpecKeyCanonicalization(t *testing.T) {
	// Defaulted and explicit forms of the same run share a key.
	a := Spec{Mix: "W1"}.Key("d1")
	b := Spec{Mix: "W1", Policy: "No-limit", Cooling: "AOHS_1.5", Model: "isolated"}.Key("d1")
	if a != b {
		t.Fatalf("equivalent specs differ:\n%s\n%s", a, b)
	}
	// Any distinguishing field separates keys.
	distinct := []Spec{
		{Mix: "W2"},
		{Mix: "W1", Policy: "DTM-TS"},
		{Mix: "W1", Cooling: "FDHS_1.0"},
		{Mix: "W1", Model: "integrated"},
		{Mix: "W1", PsiXi: 2},
		{Mix: "W1", Interval: 0.02},
		{Mix: "W1", Limits: fbconfig.ThermalLimits{AMBTDP: 100, DRAMTDP: 80, AMBTRP: 99, DRAMTRP: 79}},
	}
	seen := map[Key]bool{a: true}
	for _, s := range distinct {
		k := s.Key("d1")
		if seen[k] {
			t.Errorf("spec %v collides", s)
		}
		seen[k] = true
	}
	// The config digest scopes keys.
	if (Spec{Mix: "W1"}).Key("d2") == a {
		t.Fatal("digest not part of key")
	}
}

func TestSpecString(t *testing.T) {
	s := Spec{Mix: "W1", Policy: "DTM-TS", PsiXi: 1.5, Interval: 0.02,
		Limits: fbconfig.ThermalLimits{AMBTDP: 100, DRAMTDP: 80}}
	got := s.String()
	for _, want := range []string{"W1", "DTM-TS", "psixi=1.5", "iv=0.02", "lim=100,80"} {
		if !contains(got, want) {
			t.Errorf("String() = %q missing %q", got, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestGridExpand(t *testing.T) {
	g := Grid{
		Mixes:    []string{"W1", "W2"},
		Policies: []string{"No-limit", "DTM-TS", "DTM-BW"},
		Coolings: []string{"AOHS_1.5", "FDHS_1.0"},
	}
	specs := g.Expand()
	if len(specs) != 2*3*2 {
		t.Fatalf("expanded %d specs, want 12", len(specs))
	}
	// Deterministic order: mixes slowest.
	if specs[0].Mix != "W1" || specs[len(specs)-1].Mix != "W2" {
		t.Fatalf("order wrong: %v ... %v", specs[0], specs[len(specs)-1])
	}
	// Empty dimensions default to one zero entry.
	if n := len(Grid{Mixes: []string{"W1"}}.Expand()); n != 1 {
		t.Fatalf("minimal grid expanded to %d", n)
	}
	if len(Grid{}.Expand()) != 0 {
		t.Fatal("empty grid expanded to something")
	}
	// Every spec key is unique.
	seen := map[Key]bool{}
	for _, s := range specs {
		k := s.Key("d")
		if seen[k] {
			t.Fatalf("duplicate key %s", k)
		}
		seen[k] = true
	}
}

func TestAllMixes(t *testing.T) {
	ms := AllMixes()
	if len(ms) != 10 || ms[0] != "W1" {
		t.Fatalf("AllMixes = %v", ms)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	in := Spec{Mix: "W3", Policy: "DTM-ACG", Cooling: "FDHS_1.0", Model: "integrated", PsiXi: 2}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Spec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

// TestSpecLimitsOmitZero: a spec with no limits override marshals
// without a "limits" object, a spec with one round-trips it, and the
// cache key (built with fmt, not JSON) is the same as before the tag
// change, so ring placement and segment logs are unaffected.
func TestSpecLimitsOmitZero(t *testing.T) {
	def := Spec{Mix: "W1", Policy: "DTM-TS"}
	b, err := json.Marshal(def)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(b), `{"mix":"W1","policy":"DTM-TS"}`; got != want {
		t.Fatalf("default spec marshals as %s, want %s", got, want)
	}
	lim := def
	lim.Limits = fbconfig.ThermalLimits{AMBTDP: 100, DRAMTDP: 80, AMBTRP: 99, DRAMTRP: 79}
	if b, err = json.Marshal(lim); err != nil {
		t.Fatal(err)
	}
	var out Spec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != lim {
		t.Fatalf("round trip: %+v != %+v", out, lim)
	}
	for _, c := range []struct {
		spec Spec
		key  Key
	}{
		{def, "d1|W1|DTM-TS|AOHS_1.5|isolated|psixi=0|iv=0|lim=0,0,0,0"},
		{lim, "d1|W1|DTM-TS|AOHS_1.5|isolated|psixi=0|iv=0|lim=100,80,99,79"},
	} {
		if got := c.spec.Key("d1"); got != c.key {
			t.Errorf("Key(%v) = %s, want %s", c.spec, got, c.key)
		}
	}
}

// TestMachineSpecKey: a machine spec round-trips its JSON, keys -0 as
// +0 (the codec cannot tell them apart), shares its key with the spec
// that spells out its defaults, and every run-shape field separates
// keys, from each other and from Chapter 4 keys.
func TestMachineSpecKey(t *testing.T) {
	base := Spec{Machine: "PE1950", Mix: "W1", Policy: "DTM-ACG"}
	in := Spec{Machine: "SR1500AL", Mix: "swimx4", Policy: "DTM-BW", Quantum: 0.02, Ambient: 26,
		ForceFreq: 3, RunsPerApp: 5, MaxSeconds: 3000, InstrScale: 0.5, Limits: fbconfig.ThermalLimits{AMBTDP: 90}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Spec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in || out.Key("d") != in.Key("d") {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	if b, _ := json.Marshal(base); string(b) != `{"mix":"W1","policy":"DTM-ACG","machine":"PE1950"}` {
		t.Fatalf("default machine spec marshals as %s", b)
	}

	negZero := math.Copysign(0, -1)
	explicit := base
	explicit.Quantum, explicit.RunsPerApp, explicit.MaxSeconds, explicit.InstrScale = 0.1, 10, 100000, 1
	explicit.Ambient, explicit.Limits.AMBTDP = negZero, negZero
	if base.Key("d") != explicit.Key("d") {
		t.Fatalf("explicit defaults and -0 key differently:\n%s\n%s", base.Key("d"), explicit.Key("d"))
	}
	if got, want := base.Key("d"), Key("d|W1|DTM-ACG|machine=PE1950|q=0.1|amb=0|tdp=0|ff=0|rpa=10|max=100000|is=1"); got != want {
		t.Fatalf("Key = %s, want %s", got, want)
	}

	keys := map[Key]string{base.Key("d"): "base", (Spec{Mix: "W1", Policy: "DTM-ACG"}).Key("d"): "chapter 4"}
	for name, mod := range map[string]func(*Spec){
		"Machine":    func(s *Spec) { s.Machine = "SR1500AL" },
		"Mix":        func(s *Spec) { s.Mix = "swimx4" },
		"Policy":     func(s *Spec) { s.Policy = "DTM-BW" },
		"Quantum":    func(s *Spec) { s.Quantum = 0.02 },
		"Ambient":    func(s *Spec) { s.Ambient = 26 },
		"AMBTDP":     func(s *Spec) { s.Limits.AMBTDP = 90 },
		"ForceFreq":  func(s *Spec) { s.ForceFreq = 3 },
		"RunsPerApp": func(s *Spec) { s.RunsPerApp = 3 },
		"MaxSeconds": func(s *Spec) { s.MaxSeconds = 5000 },
		"InstrScale": func(s *Spec) { s.InstrScale = 0.5 },
	} {
		s := base
		mod(&s)
		k := s.Key("d")
		if other, dup := keys[k]; dup {
			t.Errorf("specs differing in %s share a key with %s", name, other)
		}
		keys[k] = name
	}
}
