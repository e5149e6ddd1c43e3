package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

// declared is the part of BENCHMARK.json the benchmark must print.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// tiny runs a workload at InstrScale 0.02 for one unit of work.
func tiny(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload, seed: defaultSeed, seconds: 0.01, trace: trace,
		scale: 0.02, workdir: t.TempDir(), log: io.Discard,
	}
}

// printed runs o and parses the line the benchmark prints.
func printed(t *testing.T, o options) result {
	t.Helper()
	res, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := emit(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var got result
	if err := json.Unmarshal(lines[len(lines)-1], &got); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestDeclaredWorkloads(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
}

// TestEveryMetricPrinted runs every workload at tiny scale, untraced
// and traced, and checks that the printed line is correct and carries
// exactly the metrics BENCHMARK.json declares, each with its unit.
func TestEveryMetricPrinted(t *testing.T) {
	d := readDeclared(t)
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(w, func(t *testing.T) {
				if w == "ch5-fig5.15" && testing.Short() {
					t.Skip("fig5.15 has no reduced scale; skipped in -short mode")
				}
				start := time.Now()
				got := printed(t, tiny(t, w, trace))
				t.Logf("trace=%v in %.1f s", trace, time.Since(start).Seconds())
				if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
					t.Errorf("correct %v, %d of %d failed", got.Correct, got.Failed, got.Attempted)
				}
				want := d.EndToEnd
				if trace {
					want = d.PerLayer
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(got.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := got.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
					} else if v.Unit != m.Unit {
						t.Errorf("metric %s printed in %q, declared in %q", m.Name, v.Unit, m.Unit)
					}
				}
				if trace {
					sum := got.Metrics["unattributed_s"].Value
					for name, v := range got.Metrics {
						if v.Unit == "s" && isLayerShare(name) {
							sum += v.Value
						}
					}
					if wall := got.Metrics["traced_wall_s"].Value; abs(sum-wall) > 1e-6*max(wall, 1) {
						t.Errorf("layer self times plus unattributed = %g s, traced wall %g s", sum, wall)
					}
				}
			})
		}
	}
}

// isLayerShare reports whether a per-layer metric is one of the wall
// time shares that add up to traced_wall_s.
func isLayerShare(name string) bool {
	for _, n := range []string{"traced_wall_s", "unattributed_s", "trace_overhead_s"} {
		if name == n {
			return false
		}
	}
	return true
}

// TestForcedFailureRaisesErrorRatio checks that one failed output check
// shows in the printed result.
func TestForcedFailureRaisesErrorRatio(t *testing.T) {
	o := tiny(t, "warm-grid", false)
	o.forceFail = true
	got := printed(t, o)
	ratio := float64(got.Failed) / float64(got.Attempted)
	if got.Correct || got.Failed != 1 || ratio <= 0 {
		t.Errorf("forced failure: correct %v, %d of %d failed", got.Correct, got.Failed, got.Attempted)
	}
}

// TestAttribution checks the wall-time split on hand-made spans: two
// goroutines in parallel, one of them inside a child, one waiting.
func TestAttribution(t *testing.T) {
	tr := newTracer()
	ms := int64(time.Millisecond)
	tr.spans = []span{
		{id: 1, layer: layerSweep, start: 0, end: 10 * ms},
		{id: 2, parent: 1, layer: layerLevel2, start: 1 * ms, end: 9 * ms, dtmNs: 2 * ms},
		{id: 3, parent: 2, layer: layerLevel1, start: 2 * ms, end: 4 * ms},
		{id: 4, parent: 1, layer: layerLevel2, start: 1 * ms, end: 5 * ms},
		{id: 5, parent: 4, layer: layerPrefixWait, start: 1 * ms, end: 3 * ms, wait: true},
	}
	a := tr.attribute(0, 12*ms)
	// 0-1: sweep alone. 1-2: span 2 alone (4 is waiting). 2-3: level 1
	// alone. 3-4: level 1 and span 4 share. 4-5: spans 2 and 4 share.
	// 5-9: span 2 alone. 9-10: sweep. 10-12: nothing.
	// Span 2's self time is 6 ms, of which 2 ms are decisions, so DTM
	// takes a third of the 5.5 ms span 2 gets; span 4 gets 1 ms.
	want := map[string]float64{
		layerSweep:      2,
		layerLevel1:     1.5,
		layerPrefixWait: 0,
		layerLevel2:     5.5*2/3 + 1,
		layerDTM:        5.5 / 3,
	}
	sum := a.unattributed
	for layer, w := range want {
		if got := a.self[layer] * 1e3; abs(got-w) > 1e-9 {
			t.Errorf("%s: %g ms, want %g ms", layer, got, w)
		}
		sum += a.self[layer]
	}
	if abs(a.unattributed-2e-3) > 1e-12 || abs(sum-a.wall) > 1e-12 {
		t.Errorf("unattributed %g s, shares sum to %g s of %g s", a.unattributed, sum, a.wall)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
