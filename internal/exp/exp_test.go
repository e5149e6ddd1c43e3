package exp

import (
	"strings"
	"testing"
)

// TestRegistryComplete verifies every paper artifact has a driver.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table3.1", "table3.2", "table3.3", "table4.1", "table4.3", "table4.4", "table5.1",
		"fig4.2", "fig4.3", "fig4.4", "fig4.5", "fig4.6", "fig4.7", "fig4.8",
		"fig4.9", "fig4.10", "fig4.11", "fig4.12", "fig4.13", "fig4.14",
		"fig5.4", "fig5.5", "fig5.6", "fig5.7", "fig5.8", "fig5.9",
		"fig5.10", "fig5.11", "fig5.12", "fig5.13", "fig5.14", "fig5.15",
	}
	for _, id := range want {
		if _, err := Lookup(id); err != nil {
			t.Errorf("missing driver %s", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d drivers, want %d", len(IDs()), len(want))
	}
	if _, err := Lookup("fig9.9"); err == nil {
		t.Fatal("unknown ID accepted")
	}
	if len(All()) != len(IDs()) {
		t.Fatal("All inconsistent with IDs")
	}
}

// TestStaticTables runs every parameter-table driver and checks paper
// constants appear in the rendering.
func TestStaticTables(t *testing.T) {
	r := NewRunnerParallel(true, 0)
	cases := map[string][]string{
		"table3.1": {"4.0 watt", "5.1 watt", "0.19", "0.75", "0.98", "1.12", "1.16"},
		"table3.2": {"AOHS_1.5", "FDHS_1.0", "9.3", "4.1", "50", "100"},
		"table3.3": {"Isolated", "Integrated", "1.5"},
		"table4.1": {"4-core", "64-entry", "tRCD 15ns"},
		"table4.3": {"19.2GB/s", "0.8GHz@0.95V", "[110.0,-)"},
		"table4.4": {"62", "260", "80.60", "193.40"},
		"table5.1": {"PE1950", "SR1500AL", "2.67GHz", "3.0GB/s"},
	}
	for id, wants := range cases {
		d, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		s := res.String()
		for _, w := range wants {
			if !strings.Contains(s, w) {
				t.Errorf("%s output missing %q:\n%s", id, w, s)
			}
		}
	}
}

// TestResultString covers figure rendering through the Result type.
func TestResultString(t *testing.T) {
	r := NewRunnerParallel(true, 0)
	d, _ := Lookup("table3.2")
	res, err := d.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() == "" {
		t.Fatal("empty rendering")
	}
}
